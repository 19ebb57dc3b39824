// Command perfbench is the repository's benchmark. One run executes one
// workload against the planner's public entry points, checks every plan
// it produced, and prints the workload's metrics by name with their
// units; the last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 225, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced
// run (-trace 1) repeats the same ops with spans around every call into
// a layer and reports the per-layer metrics; the spans are written to
// <out>/spans/. README.md lists the workloads, the metrics, and which
// end-to-end metric each per-layer metric should move.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	perfbench -workload plan-dr|serve-mix -seed N -seconds S -trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRepeats is how many times a run sets up its inputs; setup_s is
// the median.
const setupRepeats = 11

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's command-line settings.
type options struct {
	workload workload
	seed     int64
	seconds  int
	traced   bool
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "plan-dr or serve-mix")
	seed := fs.Int64("seed", DefaultSeed, fmt.Sprintf("workload seed (held-out seed for checking claims: %d)", HeldOutSeed))
	seconds := fs.Int("seconds", 30, "run length on the reference host; sizes the fixed op sequence")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for span files and exact-count records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload plan-dr|serve-mix, -seconds ≥ 1 and -trace 0|1\n")
		return 2
	}
	o := options{workload: w, seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out}
	rep, err := execute(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.checkCounts(o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// report is one run's outcome.
type report struct {
	opts      options
	ops       int // ops per pass
	attempted int
	failed    int
	errors    []string
	metrics   map[string]metric
	setups    []float64
	tailN     int
	counts    exactCounts
	notes     []string
	selfTimes map[string]int64
}

func (r *report) correct() bool { return r.failed == 0 }

// from records a pass's outcome; a failing pass fails the run.
func (r *report) from(p *passResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.errors = append(r.errors, p.errors...)
}

func execute(ctx context.Context, o options) (*report, error) {
	if o.workload.name == "serve-mix" {
		return runServeMix(ctx, o)
	}
	return runPlanWorkload(ctx, o)
}

func runPlanWorkload(ctx context.Context, o options) (*report, error) {
	w := o.workload
	rep := &report{opts: o, ops: w.ops(o.seconds)}
	var asIs []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		costs, err := setupPlanCosts(w, o.seed, rep.ops)
		if err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
		asIs = costs
	}
	runtime.GC()
	rep.noteRSS("set-up")
	u := runPlanPass(ctx, w, o.seed, asIs, false, nil)
	rep.noteRSS("timed pass")
	rep.from(u)
	rep.counts = u.counts()
	rep.tailN = len(u.latencies)
	if !o.traced {
		rep.metrics = endToEnd(u, median(rep.setups), peakRSSMB())
		return rep, nil
	}

	runtime.GC()
	log := newSpanLog()
	t := runPlanPass(ctx, w, o.seed, asIs, true, log)
	rep.from(t)
	rep.compareTraced(t)
	// The serve probe samples estates whose solve was clean: only those
	// are cached, so only their resubmissions are hits.
	s, sc, err := serveProbe(ctx, w, o.seed, t.clean[:min(probeEstates, len(t.clean))], log)
	if err != nil {
		s = newPassResult()
		s.fail(err)
		rep.from(s)
	}
	rep.metrics = perLayer(t, s, u, s.byKind, sc)
	rep.selfTimes = t.self
	return rep, rep.writeSpans(log)
}

func runServeMix(ctx context.Context, o options) (*report, error) {
	w := o.workload
	perClient := (w.ops(o.seconds) + w.clients - 1) / w.clients
	rep := &report{opts: o, ops: perClient * w.clients}
	var (
		refs [][][]byte
		srv  *server
		err  error
	)
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.close()
		}
		t0 := time.Now()
		if refs, err = fidelityRefs(ctx, w, o.seed); err != nil {
			return nil, err
		}
		srv = startServer(w)
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	rep.noteRSS("set-up")
	u, _ := runMixPass(ctx, w, o.seed, srv, refs, perClient, nil, 0)
	rep.noteRSS("timed pass")
	srv.close()
	rep.from(u)
	rep.counts = u.counts()
	rep.tailN = len(u.latencies)
	rep.noteKinds(u)
	if !o.traced {
		rep.metrics = endToEnd(u, median(rep.setups), peakRSSMB())
		return rep, nil
	}

	runtime.GC()
	srv = startServer(w)
	log := newSpanLog()
	t, clients := runMixPass(ctx, w, o.seed, srv, refs, perClient, log, modelProbeOps)
	c := newClient(srv)
	sc, err := c.counters(ctx)
	c.close()
	srv.close()
	if err != nil {
		t.fail(err)
	}
	rep.from(t)
	rep.compareTraced(t)

	// Probes, after the timed ops: the model layer on a sample of the
	// served bytes, and in-process solves and re-plans of the first
	// estates, since served jobs run without a metrics registry.
	probe := newPassResult()
	if err := modelProbes(clients[0].kept, t.layers); err != nil {
		probe.fail(fmt.Errorf("model probes: %w", err))
	}
	for k := 0; k < probeEstates; k++ {
		if err := solveProbe(ctx, w, o.seed, k, log, t.layers); err != nil {
			probe.fail(fmt.Errorf("solve probe %d: %w", k, err))
		}
	}
	rep.from(probe)
	rep.metrics = perLayer(t, t, u, u.byKind, sc)
	rep.selfTimes = t.self
	return rep, rep.writeSpans(log)
}

// modelProbeOps is how many of client 0's served requests the
// model-layer probes of a serve-mix traced run replay.
const modelProbeOps = 200

// compareTraced requires the traced pass to have done exactly the work
// of the untraced one: instrumentation must not change a search.
func (r *report) compareTraced(t *passResult) {
	if got := t.counts(); got != r.counts {
		r.failed++
		r.errors = append(r.errors, fmt.Sprintf("traced pass counts %v differ from the untraced pass %v", got, r.counts))
	}
}

func (r *report) noteKinds(p *passResult) {
	for _, kind := range []string{opHit, opCold, opReplan} {
		lat := p.byKind[kind]
		r.notes = append(r.notes, fmt.Sprintf("%-6s requests: %5d  p50 %.3f ms", kind, len(lat), median(lat)))
	}
}

// noteRSS records the peak RSS so far, so the output shows whether the
// set-up or the timed pass set peak_rss_mb.
func (r *report) noteRSS(after string) {
	r.notes = append(r.notes, fmt.Sprintf("peak RSS after the %s: %.1f MB", after, peakRSSMB()))
}

func (r *report) writeSpans(log *spanLog) error {
	o := r.opts
	path := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d-s%d.jsonl", o.workload.name, o.seed, o.seconds))
	if err := log.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.notes = append(r.notes, fmt.Sprintf("spans: %d written to %s", len(log.spans), path))
	return nil
}

// countRecord is an earlier run's exact counts, keyed by workload, seed
// and length, and tied to the binary that produced them.
type countRecord struct {
	Binary string      `json:"binary"`
	Counts exactCounts `json:"counts"`
}

// checkCounts compares the run's exact counts with the last run of the
// same binary, workload, seed and length in o.out, and says whether they
// match; a mismatch fails the run. The first run of a binary records
// them.
func (r *report) checkCounts(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	bin := fmt.Sprintf("%016x", hash64(b))
	path := filepath.Join(o.out, "counts", fmt.Sprintf("%s-seed%d-s%d.json", o.workload.name, o.seed, o.seconds))
	var prev countRecord
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &prev) == nil && prev.Binary == bin {
		if prev.Counts != r.counts {
			r.failed++
			r.errors = append(r.errors, fmt.Sprintf("exact counts differ from an earlier run of this build: %v", prev.Counts))
			return nil
		}
		r.notes = append(r.notes, "exact counts match the earlier run of this build, seed and length")
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(countRecord{Binary: bin, Counts: r.counts})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	r.notes = append(r.notes, "exact counts recorded: first run of this build, seed and length")
	return nil
}

// print writes the human-readable report and, last, the JSON result.
func (r *report) print(w io.Writer) {
	o := r.opts
	mode := "untraced: end-to-end metrics"
	if o.traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d (%s), %d ops per pass\n", o.workload.name, o.seed, o.seconds, mode, r.ops)
	for _, name := range sortedKeys(r.metrics) {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if !o.traced {
		q, above := tailPercentile(r.tailN)
		fmt.Fprintf(w, "latency_ms_tail is p%g: %d of %d samples lie above it\n", q, above, r.tailN)
		fmt.Fprintf(w, "setup_s is the median of %d set-ups: %.4f s\n", len(r.setups), r.setups)
	}
	if len(r.selfTimes) > 0 {
		var total int64
		for _, ns := range r.selfTimes {
			total += ns
		}
		fmt.Fprintf(w, "self time by layer over the traced ops (sums to their latency, %.3f s):", float64(total)/1e9)
		for _, layer := range sortedKeys(r.selfTimes) {
			fmt.Fprintf(w, " %s %.3f s", layer, float64(r.selfTimes[layer])/1e9)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "exact counts: %v\n", r.counts)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, e := range r.errors {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(res)
	if err != nil {
		// Only a non-finite metric can fail to encode; report it as a
		// failed run rather than print no result.
		res.Correct, res.Metrics = false, map[string]metric{}
		b, _ = json.Marshal(res)
	}
	fmt.Fprintln(w, string(b))
}
