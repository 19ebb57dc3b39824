// Command etserve runs the eTransform planner as a long-lived HTTP
// service (internal/serve): clients POST as-is states to /v1/plans and
// poll for certified plans, with a content-hash solve cache, streaming
// JSONL solve traces, and warm re-planning from a previous job's plan.
//
// Usage:
//
//	etserve [-addr :8080] [solve flags]
//
// Typical invocations:
//
//	etserve -addr :8080 -workers 1
//	etserve -addr :0 -dr -omega 0.4 -solvers 2
//	etserve -preload seed1.json -preload seed2.json
//
// The solve flags (-dr, -omega, -gap, -nodes, -timelimit, -workers, …)
// are etransform's own, defined once by core.Options.RegisterFlags, and
// apply to every job the daemon accepts, so a plan fetched from
// GET /v1/plans/{id}/plan is byte-identical to
// `etransform -state <same file> -plan -` with the same flags.
//
// -preload solves the given state files before the listener starts,
// populating the plan cache so the first real submission of a known
// estate is answered instantly. With -addr :0 the daemon picks a free
// port; the chosen address is printed as "etserve listening on ..." so
// scripts can scrape it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/experiments"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "etserve:", err)
		os.Exit(1)
	}
}

// Server timeouts. A client has readHeaderTimeout to send its request
// headers and idleTimeout to start its next request on a kept-alive
// connection, so stalled or abandoned connections cannot hold server
// goroutines open. There is no read or write timeout: a large state may
// upload slowly, and /events streams for a whole solve.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func run(args []string) error {
	fs := flag.NewFlagSet("etserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (use :0 for a free port; the bound address is printed)")
	queueSize := fs.Int("queue", 64, "maximum queued jobs; submissions beyond it get HTTP 429")
	solvers := fs.Int("solvers", 1, "concurrent solves (total parallelism = solvers × workers)")
	var preload multiFlag
	fs.Var(&preload, "preload", "solve this as-is state JSON at startup to warm the plan cache (repeatable)")

	var coreOpts core.Options
	coreOpts.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Refuse a bad solve flag once, before preload and the listener,
	// instead of failing every job the daemon accepts.
	if err := coreOpts.Validate(); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := serve.New(serve.Config{Core: coreOpts, Queue: *queueSize, Solvers: *solvers})
	defer srv.Close()

	if len(preload) > 0 {
		states := make([]*model.AsIsState, len(preload))
		for i, path := range preload {
			s, err := model.LoadState(path)
			if err != nil {
				return fmt.Errorf("-preload: %w", err)
			}
			states[i] = s
		}
		// Fan the preload solves across the solver budget; an interrupt
		// during warmup cancels cleanly instead of draining the list.
		err := experiments.ForEachContext(ctx, len(states), *solvers, func(i int) error {
			if err := srv.Warm(ctx, states[i]); err != nil {
				return fmt.Errorf("-preload %s: %w", preload[i], err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("etserve: preloaded %d plans into the cache\n", len(states))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("etserve listening on http://%s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
