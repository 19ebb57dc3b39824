package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"time"

	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/serve"
)

// Serve op kinds.
const (
	opCold   = "cold"   // a new estate: a full solve
	opHit    = "hit"    // an estate the client solved before, re-encoded
	opReplan = "replan" // ?prev= edit of an estate the client solved
)

// roundKinds is one serve-mix op: a round of four requests in the mix
// the benchmark assumes, ½ hits, ¼ cold solves and ¼ re-plans. The
// shares are an assumption: no etserve traffic log exists to derive them
// from. The op is a round rather than a single request because the
// median of single requests drawn from this mix falls on the boundary
// between the hit latencies and the solve latencies; a round's latency
// covers every path, so a regression on any of them moves its median.
var roundKinds = [...]string{opCold, opHit, opReplan, opHit}

// fidelityOps is how many of each client's first cold ops are compared
// byte for byte with an in-process solve of the same state. A client's
// first round is all cold solves (it has solved nothing to resubmit), so
// this covers it.
const fidelityOps = len(roundKinds)

// jobStatus holds the fields of serve's job status the benchmark reads.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Seeded bool   `json:"seeded"`
	Events int    `json:"events"`
}

// server is an in-process planning daemon behind a loopback listener.
type server struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startServer(w workload) *server {
	srv := serve.New(serve.Config{Core: w.coreOptions(), Solvers: 1})
	return &server{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

func (s *server) close() {
	s.ts.Close()
	s.srv.Close()
}

// client is one closed-loop client on one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(s *server) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
		base: s.ts.URL,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is what one serve op returned, with the instants that bound its
// spans.
type reply struct {
	status jobStatus
	plan   []byte
	events int
	t0     time.Time // POST sent
	posted time.Time // POST answered
	first  time.Time // first /events line (or stream close when none)
	closed time.Time // /events stream closed
	done   time.Time // plan body read
}

func (r *reply) latency() time.Duration { return r.done.Sub(r.t0) }

// trace records the request's spans under parent: its round trips tile
// the request.
func (r *reply) trace(tr *opTrace, parent int) {
	tr.add(parent, "serve.submit", "serve", r.t0, r.posted)
	tr.add(parent, "serve.queue_wait", "serve", r.posted, r.first)
	tr.add(parent, "serve.job", "serve", r.first, r.closed)
	tr.add(parent, "serve.fetch", "serve", r.closed, r.done)
}

func (r *reply) addLayers(a accs, solved bool) {
	a.add("serve.submit_us", us(r.posted.Sub(r.t0)))
	a.add("serve.queue_wait_us", us(r.first.Sub(r.posted)))
	a.add("serve.job_us", us(r.closed.Sub(r.first)))
	a.add("serve.fetch_us", us(r.done.Sub(r.closed)))
	if solved {
		a.add("obs.events", float64(r.events))
	}
}

// do runs one op: POST the state, follow /events until the stream
// closes, then GET the plan. Any status other than 200 or 202 on the
// POST, or 200 afterwards, is an error.
func (c *client) do(ctx context.Context, body []byte, prev string) (*reply, error) {
	r := &reply{t0: time.Now()}
	u := c.base + "/v1/plans"
	if prev != "" {
		u += "?prev=" + url.QueryEscape(prev)
	}
	b, code, err := c.request(ctx, http.MethodPost, u, body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", u, code, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &r.status); err != nil {
		return nil, fmt.Errorf("POST %s: %w", u, err)
	}
	r.posted = time.Now()

	jobURL := c.base + "/v1/plans/" + url.PathEscape(r.status.ID)
	if err := c.follow(ctx, jobURL+"/events", r); err != nil {
		return nil, err
	}
	r.closed = time.Now()
	if r.events == 0 {
		r.first = r.closed
	}
	if r.plan, code, err = c.request(ctx, http.MethodGet, jobURL+"/plan", nil); err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s/plan: HTTP %d: %s", jobURL, code, bytes.TrimSpace(r.plan))
	}
	r.done = time.Now()
	return r, nil
}

func (c *client) request(ctx context.Context, method, u string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %s: %w", method, u, err)
	}
	return b, resp.StatusCode, nil
}

// follow reads the JSONL event stream until the server closes it.
func (c *client) follow(ctx context.Context, u string, r *reply) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if r.events == 0 {
				r.first = time.Now()
			}
			r.events++
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("GET %s: %w", u, err)
		}
	}
}

// serveCounters are the daemon's own numbers, read from /v1/metrics and
// /v1/healthz at the end of a pass.
type serveCounters struct {
	cacheHitShare float64
	warmSeeded    float64
	rejected      float64
	jobsRetained  float64
	cacheEntries  float64
}

func (c *client) counters(ctx context.Context) (serveCounters, error) {
	var sc serveCounters
	b, code, err := c.request(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return sc, err
	}
	var snap obs.Snapshot
	if code != http.StatusOK {
		return sc, fmt.Errorf("GET /v1/metrics: HTTP %d", code)
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		return sc, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	hits := float64(snap.Counters[obs.MetricServeCacheHits])
	sc.cacheHitShare = ratio(hits, hits+float64(snap.Counters[obs.MetricServeCacheMisses]))
	sc.warmSeeded = float64(snap.Counters[obs.MetricServeWarmSeeded])
	sc.rejected = float64(snap.Counters[obs.MetricServeJobsRejected])
	if b, code, err = c.request(ctx, http.MethodGet, c.base+"/v1/healthz", nil); err != nil {
		return sc, err
	}
	var h struct {
		Jobs   int `json:"jobs"`
		Cached int `json:"cached"`
	}
	if code != http.StatusOK {
		return sc, fmt.Errorf("GET /v1/healthz: HTTP %d", code)
	}
	if err := json.Unmarshal(b, &h); err != nil {
		return sc, fmt.Errorf("GET /v1/healthz: %w", err)
	}
	sc.jobsRetained, sc.cacheEntries = float64(h.Jobs), float64(h.Cached)
	return sc, nil
}

func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// mixBase is one estate a serve-mix client has solved.
type mixBase struct {
	k        int
	edits    []edit
	lastJob  string  // the job a replan of this estate seeds from
	asIs     float64 // as-is cost of the unedited estate
	cost     float64 // plan cost of the cold solve
	planHash uint64  // hash of the plan body the cold solve served
}

// mixClient runs one client's fixed, seeded op sequence. Its choices
// depend only on its seed and on the (deterministic) answers it got, so
// the same seed replays the same ops.
type mixClient struct {
	w      workload
	seed   int64
	idx    int
	rng    *rand.Rand
	c      *client
	bases  []*mixBase
	cached []*mixBase // bases whose cold solve was clean, hence cached
	nextK  int
	refs   [][]byte // normalized in-process plans of the first cold estates
	// keep, when positive, retains the first keep requests' state and
	// plan bytes for the model-layer probes of a traced run.
	keep int
	kept []keptOp
	// trail names every request sent, in order: kind, estate and edits.
	trail []string
}

type keptOp struct{ state, plan []byte }

func newMixClient(w workload, seed int64, idx int, refs [][]byte) *mixClient {
	return &mixClient{
		w: w, seed: seed, idx: idx, refs: refs,
		rng: rand.New(rand.NewSource(estateSeed(w.name+"/ops", seed, idx, 0))),
	}
}

// request is one request of a round, drawn and encoded before the round
// starts.
type request struct {
	kind  string
	base  *mixBase
	state *model.AsIsState // the state sent, edited for a re-plan
	body  []byte
	prev  string
}

// draw picks the next round's requests and encodes their bodies. Hits
// and re-plans pick among the estates solved in earlier rounds; while
// there is none to pick, the request is a cold solve instead.
func (m *mixClient) draw() ([]request, error) {
	reqs := make([]request, 0, len(roundKinds))
	for _, kind := range roundKinds {
		var b *mixBase
		switch {
		case kind == opHit && len(m.cached) > 0:
			b = m.cached[m.rng.Intn(len(m.cached))]
		case kind == opReplan && len(m.bases) > 0:
			b = m.bases[m.rng.Intn(len(m.bases))]
		default:
			kind, b = opCold, &mixBase{k: m.nextK}
			m.nextK++
		}
		st, err := m.w.generateEstate(m.seed, m.idx, b.k)
		if err != nil {
			return nil, err
		}
		rq := request{kind: kind, base: b, state: st}
		switch kind {
		case opHit:
			rq.body, err = reencodeState(st)
		case opReplan:
			b.edits = append(b.edits, edit{dc: m.rng.Intn(len(st.Target.DCs))})
			applyEdits(st, b.edits)
			rq.prev = b.lastJob
			rq.body, err = encodeState(st)
		default:
			rq.body, err = encodeState(st)
		}
		if err != nil {
			return nil, err
		}
		m.trail = append(m.trail, fmt.Sprintf("%s:%d:%v", kind, b.k, b.edits))
		reqs = append(reqs, rq)
	}
	return reqs, nil
}

// run performs n rounds. The client's timed phase is the time spent
// inside rounds: drawing and encoding a round's bodies and the gate run
// between rounds. With log set, each round records spans under op ids
// starting at opBase.
func (m *mixClient) run(ctx context.Context, n int, log *spanLog, opBase int) *passResult {
	res := newPassResult()
	for i := 0; i < n; i++ {
		latency, err := m.round(ctx, res, log, opBase+i)
		if err != nil {
			res.fail(fmt.Errorf("client %d op %d: %w", m.idx, i, err))
			continue
		}
		res.addOp(latency)
	}
	return res
}

// round runs one op: its requests in order, then the gate on every
// reply. The op's latency runs from the first POST sent to the last plan
// body read.
func (m *mixClient) round(ctx context.Context, res *passResult, log *spanLog, op int) (time.Duration, error) {
	reqs, err := m.draw()
	if err != nil {
		return 0, err
	}
	reps := make([]*reply, len(reqs))
	for i, rq := range reqs {
		if reps[i], err = m.c.do(ctx, rq.body, rq.prev); err != nil {
			return 0, err
		}
	}
	start, end := reps[0].t0, reps[len(reps)-1].done
	if log != nil {
		tr := log.op(op)
		root := tr.add(-1, "op", "bench", start, end)
		for i, rep := range reps {
			rep.trace(tr, root)
			rep.addLayers(res.layers, reqs[i].kind != opHit)
		}
		if err := res.addSelfTimes(tr); err != nil {
			return 0, err
		}
		log.add(tr)
	}
	for i, rq := range reqs {
		if err := m.check(res, rq, reps[i]); err != nil {
			return 0, err
		}
		if len(m.kept) < m.keep {
			m.kept = append(m.kept, keptOp{state: rq.body, plan: reps[i].plan})
		}
	}
	return end.Sub(start), nil
}

// check applies the gate to one request's reply and records its plan.
func (m *mixClient) check(res *passResult, rq request, rep *reply) error {
	b := rq.base
	res.byKind[rq.kind] = append(res.byKind[rq.kind], ms(rep.latency()))
	if rq.kind == opHit {
		// The cache must replay the exact bytes of the solve that
		// filled the entry.
		if !rep.status.Cached || rep.status.State != serve.StateDone {
			return fmt.Errorf("resubmitted estate %d was not answered from the cache (state %s)", b.k, rep.status.State)
		}
		if hash64(rep.plan) != b.planHash {
			return fmt.Errorf("cache hit for estate %d served other bytes than the solve that filled it", b.k)
		}
		res.addResult(true, b.cost, b.asIs, 0, 0)
		return nil
	}
	if rep.status.Cached {
		return fmt.Errorf("%s request for estate %d was answered from the cache", rq.kind, b.k)
	}
	if want := rq.kind == opReplan; rep.status.Seeded != want {
		return fmt.Errorf("%s request for estate %d: seeded=%v", rq.kind, b.k, rep.status.Seeded)
	}
	plan, err := checkPlan(rq.state, rep.plan)
	if err != nil {
		return err
	}
	asIs, err := m.w.asIsCost(rq.state)
	if err != nil {
		return err
	}
	res.addPlan(plan, asIs, true)
	b.lastJob = rep.status.ID
	if rq.kind == opReplan {
		return nil
	}
	if b.k < len(m.refs) {
		got, err := normalizePlan(rep.plan)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, m.refs[b.k]) {
			return fmt.Errorf("served plan for estate %d differs from the in-process plan of the same state", b.k)
		}
	}
	b.asIs, b.cost = asIs, plan.Cost.Total()
	m.bases = append(m.bases, b)
	if plan.Stats.Degradation == nil {
		b.planHash = hash64(rep.plan)
		m.cached = append(m.cached, b)
	}
	return nil
}

// fidelityRefs solves each client's first cold estates in process and
// returns the normalized plans the daemon must serve for them.
func fidelityRefs(ctx context.Context, w workload, seed int64) ([][][]byte, error) {
	refs := make([][][]byte, w.clients)
	for c := range refs {
		for k := 0; k < fidelityOps; k++ {
			st, err := w.generateEstate(seed, c, k)
			if err != nil {
				return nil, err
			}
			body, err := encodeState(st)
			if err != nil {
				return nil, err
			}
			out, err := planOp(ctx, body, w.coreOptions())
			if err != nil {
				return nil, err
			}
			norm, err := normalizePlan(out)
			if err != nil {
				return nil, err
			}
			refs[c] = append(refs[c], norm)
		}
	}
	return refs, nil
}

// runMixPass runs every client's n ops against s concurrently and merges
// the results in client order. The pass's timed phase is the longer of
// the two clients'.
func runMixPass(ctx context.Context, w workload, seed int64, s *server, refs [][][]byte, n int, log *spanLog, keep int) (*passResult, []*mixClient) {
	clients := make([]*mixClient, w.clients)
	results := make([]*passResult, w.clients)
	for i := range clients {
		clients[i] = newMixClient(w, seed, i, refs[i])
		clients[i].c = newClient(s)
		clients[i].keep = keep
	}
	var wg sync.WaitGroup
	for i, mc := range clients {
		wg.Add(1)
		go func(i int, mc *mixClient) {
			defer wg.Done()
			results[i] = mc.run(ctx, n, log, i*n)
		}(i, mc)
	}
	wg.Wait()
	res := newPassResult()
	for i, r := range results {
		res.merge(r)
		res.wall = max(res.wall, r.wall)
		clients[i].c.close()
	}
	return res, clients
}

// serveProbe sends estates ks of a plan-dr run through a fresh daemon,
// each as a cold solve, a re-encoded resubmission (a cache hit) and a
// ?prev= re-plan, so a plan-dr traced run also reports the serve layer's
// numbers for its own inputs.
func serveProbe(ctx context.Context, w workload, seed int64, ks []int, log *spanLog) (*passResult, serveCounters, error) {
	s := startServer(w)
	defer s.close()
	c := newClient(s)
	defer c.close()
	res := newPassResult()
	op := -1
	for _, k := range ks {
		st, body, err := w.planState(seed, k)
		if err != nil {
			return nil, serveCounters{}, err
		}
		edited, _, err := w.planState(seed, k)
		if err != nil {
			return nil, serveCounters{}, err
		}
		applyEdits(edited, []edit{{dc: k % len(edited.Target.DCs)}})
		hitBody, err := reencodeState(st)
		if err != nil {
			return nil, serveCounters{}, err
		}
		replanBody, err := encodeState(edited)
		if err != nil {
			return nil, serveCounters{}, err
		}
		var cold *reply
		for _, o := range []struct {
			kind  string
			body  []byte
			state *model.AsIsState
		}{{opCold, body, st}, {opHit, hitBody, st}, {opReplan, replanBody, edited}} {
			prev := ""
			if o.kind == opReplan {
				prev = cold.status.ID
			}
			rep, err := c.do(ctx, o.body, prev)
			if err == nil && (rep.status.Cached != (o.kind == opHit) || rep.status.Seeded != (o.kind == opReplan)) {
				err = fmt.Errorf("cached=%v seeded=%v", rep.status.Cached, rep.status.Seeded)
			}
			if err == nil && o.kind == opHit && !bytes.Equal(rep.plan, cold.plan) {
				err = errors.New("cache hit served other bytes than the solve that filled it")
			}
			if err == nil && o.kind != opHit {
				_, err = checkPlan(o.state, rep.plan)
			}
			if err != nil {
				return nil, serveCounters{}, fmt.Errorf("serve probe %s op %d: %w", o.kind, k, err)
			}
			if o.kind == opCold {
				cold = rep
			}
			tr := log.op(op)
			op--
			rep.trace(tr, tr.add(-1, "op", "bench", rep.t0, rep.done))
			log.add(tr)
			rep.addLayers(res.layers, o.kind != opHit)
			res.byKind[o.kind] = append(res.byKind[o.kind], ms(rep.latency()))
		}
	}
	sc, err := c.counters(ctx)
	return res, sc, err
}

// modelProbes times the model layer on the state and plan bytes of a
// sample of served requests: the decode and canonical hash a submission costs
// the daemon, and the encode its plan cost.
func modelProbes(ops []keptOp, a accs) error {
	for _, o := range ops {
		t0 := time.Now()
		st, err := model.ReadState(bytes.NewReader(o.state))
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := model.CanonicalBytes(st); err != nil {
			return err
		}
		t2 := time.Now()
		plan, err := model.ReadPlan(bytes.NewReader(o.plan))
		if err != nil {
			return err
		}
		t3 := time.Now()
		if err := model.WritePlan(io.Discard, plan); err != nil {
			return err
		}
		t4 := time.Now()
		a.add("model.decode_us", us(t1.Sub(t0)))
		a.add("model.canonical_us", us(t2.Sub(t1)))
		a.add("model.encode_us", us(t4.Sub(t3)))
	}
	return nil
}
