package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"refrint"
	"refrint/internal/server"
	"refrint/internal/sweep"
)

// The service-mixed traffic: a closed loop of background rounds and an open
// loop of interactive requests, from this one process over two connections.
const (
	interactiveRate   = 20.0 // interactive requests per second
	interactiveEffort = 0.05
	backgroundEffort  = 0.1
	serverStarts      = 15 // set-ups per run; setup_s is their median
	checkedJobs       = 5  // interactive jobs whose results are checked
	settleTimeout     = 60 * time.Second
)

// backgroundPairs are the application pairs of one background round: each
// application appears in two of its sweeps, so the sweeps overlap.
var backgroundPairs = [][]string{{"FFT", "LU"}, {"LU", "Blackscholes"}, {"Blackscholes", "FFT"}}

var interactiveApps = []string{"FFT", "LU", "Blackscholes"}

// Request kinds, for serviceSeed.
const (
	kindWarmUp = iota
	kindBackground
	kindInteractive
)

// serviceSeed derives the workload seed of the i-th request of one kind
// from the run's seed: every request of a run gets a fresh seed, and runs
// at different seeds share none.
func serviceSeed(runSeed int64, kind, i int) int64 {
	return runSeed<<24 | int64(kind)<<20 | int64(i+1)
}

func interactiveRequest(app string, seed int64, scale float64) refrint.SweepRequest {
	return refrint.SweepRequest{
		Apps:             []string{app},
		Policies:         []string{"R.WB(32,32)"},
		RetentionTimesUS: []float64{50},
		EffortScale:      interactiveEffort * scale,
		Seed:             seed,
		Priority:         "interactive",
		Client:           "interactive",
	}
}

// buildServer builds refrint-serve from the repository's sources into dir.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "refrint-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/refrint-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building refrint-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// svcClient sends requests to one server over a single connection.
type svcClient struct {
	base string
	http *http.Client
}

func newClient(base string) *svcClient {
	return &svcClient{base: base, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   settleTimeout,
	}}
}

// do sends one request and returns the response body; a non-2xx status is
// an error.
func (c *svcClient) do(ctx context.Context, method, path, reqID string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// getJSON fetches path and decodes the JSON response into out.
func (c *svcClient) getJSON(ctx context.Context, path string, out any) error {
	data, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// serveProc is one running refrint-serve process.
type serveProc struct {
	cmd     *exec.Cmd
	exited  chan struct{} // closed once Wait has returned
	waitErr error
}

// startServer starts refrint-serve with its default flags on a free local
// port and the given store directory, and waits until it answers /healthz.
// It returns how long that took: the server's set-up time.
func startServer(ctx context.Context, bin, dataDir string, log io.Writer) (*serveProc, *svcClient, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, nil, 0, fmt.Errorf("starting refrint-serve: %w", err)
	}
	p := &serveProc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	c := newClient("http://" + addr)
	deadline := start.Add(settleTimeout)
	for {
		if _, err := c.do(ctx, http.MethodGet, "/healthz", "", nil); err == nil {
			return p, c, time.Since(start), nil
		}
		select {
		case <-p.exited:
			return nil, nil, 0, fmt.Errorf("refrint-serve exited during start-up: %v", p.waitErr)
		case <-ctx.Done():
			p.stop(c)
			return nil, nil, 0, ctx.Err()
		case <-time.After(250 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			p.stop(c)
			return nil, nil, 0, errors.New("refrint-serve did not answer /healthz")
		}
	}
}

// stop shuts the server down with SIGTERM, waits for it to exit and
// returns its peak resident set size in MB.
func (p *serveProc) stop(c *svcClient) float64 {
	c.http.CloseIdleConnections()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(settleTimeout):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// warmUp runs one sweep on the server to completion.
func warmUp(ctx context.Context, c *svcClient, req refrint.SweepRequest) error {
	var job server.JobView
	data, err := c.do(ctx, http.MethodPost, "/v1/sweeps", "bench-warm-up", req)
	if err == nil {
		err = json.Unmarshal(data, &job)
	}
	for err == nil && !job.State.Terminal() {
		time.Sleep(time.Millisecond)
		err = c.getJSON(ctx, "/v1/sweeps/"+job.ID, &job)
	}
	if err == nil && job.State != server.StateDone {
		err = fmt.Errorf("ended %s: %s", job.State, job.Error)
	}
	if err != nil {
		return fmt.Errorf("warm-up sweep: %w", err)
	}
	return nil
}

// ending is when the firehose reported a job or batch terminal.
type ending struct {
	state server.State
	at    time.Time
}

// firehose follows the server's /v1/events stream on a connection of its
// own and records when each job reached its terminal state.
type firehose struct {
	cancel context.CancelFunc
	done   chan struct{}
	bell   chan struct{} // rung after every terminal event
	mu     sync.Mutex
	ended  map[string]ending
}

func openFirehose(ctx context.Context, base string) (*firehose, error) {
	ctx, cancel := context.WithCancel(ctx)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// The server subscribes before it sends the response headers, so no
	// event published after Do returns is missed.
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("opening /v1/events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("opening /v1/events: %s", resp.Status)
	}
	f := &firehose{cancel: cancel, done: make(chan struct{}), bell: make(chan struct{}, 1), ended: make(map[string]ending)}
	go func() {
		defer close(f.done)
		defer resp.Body.Close()
		f.read(resp.Body)
	}()
	return f, nil
}

// read parses the event stream until it ends.
func (f *firehose) read(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	name := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			name = ""
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			state := server.State(name)
			if !state.Terminal() {
				continue
			}
			var v struct {
				ID string `json:"id"`
			}
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v) != nil {
				continue
			}
			now := time.Now()
			f.mu.Lock()
			if _, seen := f.ended[v.ID]; !seen {
				f.ended[v.ID] = ending{state: state, at: now}
			}
			f.mu.Unlock()
			select {
			case f.bell <- struct{}{}:
			default:
			}
		}
	}
}

func (f *firehose) ending(id string) (ending, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.ended[id]
	return e, ok
}

func (f *firehose) allEnded(ids []string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, id := range ids {
		if _, ok := f.ended[id]; !ok {
			return false
		}
	}
	return true
}

func (f *firehose) close() {
	f.cancel()
	<-f.done
}

// interactiveReq is one request of the open loop.
type interactiveReq struct {
	seq                 int
	reqID, jobID        string
	req                 refrint.SweepRequest
	due, sent, answered time.Time
	traced              bool
	err                 error
}

// bgRound is one background batch of the closed loop.
type bgRound struct {
	reqID, batchID   string
	reqs             []refrint.SweepRequest
	jobs             []string
	err              error
	submitted, ended time.Time
	complete         bool // every job ended done
}

// runServiceMixed measures the real refrint-serve binary: the only workload
// that crosses the server, the scheduler and the store.  Background rounds
// of three overlapping sweeps keep both scheduler workers busy, one round
// after the last has finished; interactive requests arrive on a fixed
// schedule regardless and wait behind the running background sweeps.
func runServiceMixed(ctx context.Context, opt options, tr *tracer) (*report, error) {
	bin := opt.server
	if bin == "" {
		var err error
		if bin, err = buildServer(ctx, opt.root, filepath.Join(opt.root, ".bench_build", "bin")); err != nil {
			return nil, err
		}
	}
	runDir := filepath.Join(opt.storeDir, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	log, err := os.Create(filepath.Join(runDir, "serve.log"))
	if err != nil {
		return nil, err
	}
	defer log.Close()
	rep := newReport()
	rep.storeDir = runDir

	// Set-up, several times over: exec the server on an empty store until
	// it answers.  The last server started is measured, after one untimed
	// warm-up sweep.
	var (
		setups []float64
		srv    *serveProc
		cli    *svcClient
	)
	for k := 0; k < serverStarts; k++ {
		p, c, d, err := startServer(ctx, bin, filepath.Join(runDir, "data-"+strconv.Itoa(k)), log)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if k < serverStarts-1 {
			p.stop(c)
		} else {
			srv, cli = p, c
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop(cli)
		}
	}()
	warm := interactiveRequest(interactiveApps[0], serviceSeed(opt.seed, kindWarmUp, 0), opt.scale)
	if err := warmUp(ctx, cli, warm); err != nil {
		return nil, err
	}

	fh, err := openFirehose(ctx, cli.base)
	if err != nil {
		return nil, err
	}
	defer fh.close()

	inter, rounds := driveLoad(ctx, opt, cli, fh)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Let every submitted job finish, then account for them.
	var ids []string
	for _, r := range inter {
		if r.jobID != "" {
			ids = append(ids, r.jobID)
		}
	}
	for _, r := range rounds {
		ids = append(ids, r.jobs...)
	}
	settle := time.Now().Add(settleTimeout)
	for !fh.allEnded(ids) && time.Now().Before(settle) && ctx.Err() == nil {
		select {
		case <-fh.bell:
		case <-time.After(50 * time.Millisecond):
		}
	}

	// Account for every job.  A job delivers the cells no earlier job did.
	var delivered []delivery
	deliver := func(id string, req refrint.SweepRequest) (ending, bool) {
		e, ok := fh.ending(id)
		switch {
		case !ok:
			rep.fail("job %s: no terminal event", id)
			return e, false
		case e.state != server.StateDone:
			rep.fail("job %s ended %s", id, e.state)
			return e, false
		}
		delivered = append(delivered, delivery{at: e.at, req: req})
		return e, true
	}
	var latency, tracedLat, plainLat []float64
	var lateMS float64
	var done []*interactiveReq
	for _, r := range inter {
		rep.attempted++
		lateMS = max(lateMS, float64(r.sent.Sub(r.due))/float64(time.Millisecond))
		if r.err != nil {
			rep.fail("interactive request %d: %v", r.seq, r.err)
			continue
		}
		e, ok := deliver(r.jobID, r.req)
		if !ok {
			continue
		}
		done = append(done, r)
		lat := e.at.Sub(r.due).Seconds()
		latency = append(latency, lat)
		if r.traced {
			tracedLat = append(tracedLat, lat)
		} else {
			plainLat = append(plainLat, lat)
		}
	}
	for i, r := range rounds {
		if r.err != nil {
			rep.attempted += len(backgroundPairs)
			rep.fail("background round %d: %v", i, r.err)
			continue
		}
		r.complete = true
		for j, id := range r.jobs {
			rep.attempted++
			e, ok := deliver(id, r.reqs[j])
			r.complete = r.complete && ok
			if e.at.After(r.ended) {
				r.ended = e.at
			}
		}
	}
	warmCells, err := requestCells(warm)
	if err != nil {
		return nil, err
	}
	cells, refsRate, cellsRate, err := roundRates(delivered, rounds)
	if err != nil {
		return nil, err
	}

	// Check a few interactive jobs' results against the library computing
	// the same requests in this process.
	var counts modelCounts
	for k := 0; k < checkedJobs && len(done) > 0; k++ {
		r := done[k*len(done)/checkedJobs]
		rep.attempted++
		if err := checkJobResults(ctx, cli, r, &counts); err != nil {
			rep.fail("results of job %s: %v", r.jobID, err)
		}
	}
	metricsText, err := cli.do(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	rep.attempted++
	hits, hitsOK := promCounter(metricsText, "refrint_cell_cache_hits_total")
	misses, missesOK := promCounter(metricsText, "refrint_cell_cache_misses_total")
	if !hitsOK || !missesOK {
		rep.fail("/metrics lacks the store's cell counters")
	}
	if tr != nil {
		if err := traceService(ctx, cli, fh, tr, inter, rounds, rep); err != nil {
			return nil, err
		}
	}
	rssMB := srv.stop(cli)
	stopped = true

	rep.e2e["refs_per_s"] = percentile(refsRate, 50)
	rep.e2e["cells_per_s"] = percentile(cellsRate, 50)
	rep.e2e["latency_p50_s"] = percentile(latency, 50)
	rep.e2e["latency_p90_s"] = percentile(latency, 90)
	rep.e2e["setup_s"] = percentile(setups, 50)
	rep.e2e["max_rss_mb"] = rssMB
	if tr != nil {
		counts.report(rep.layer)
		rep.layer["store.cell_hit_rate"] = ratio(hits, hits+misses)
		rep.layer["sweep.dup_cell_sims"] = misses - float64(cells+len(warmCells))
		rep.layer["loadgen.max_late_ms"] = lateMS
		rep.layer["trace.overhead_frac"] = ratio(percentile(tracedLat, 50), percentile(plainLat, 50)) - 1
	}
	return rep, nil
}

// driveLoad sends the background and interactive traffic until the window
// has passed.  Both loops run on this goroutine, so every POST goes over
// the one client connection; job terminals arrive on the firehose.
func driveLoad(ctx context.Context, opt options, cli *svcClient, fh *firehose) ([]*interactiveReq, []*bgRound) {
	var (
		inter  []*interactiveReq
		rounds []*bgRound
		start  = time.Now()
		end    = start.Add(opt.window())
	)
	submitRound := func() *bgRound {
		r := &bgRound{reqID: "bench-bg-" + strconv.Itoa(len(rounds))}
		seed := serviceSeed(opt.seed, kindBackground, len(rounds))
		body := server.BatchRequest{Priority: "background", Client: "background"}
		for _, pair := range backgroundPairs {
			body.Requests = append(body.Requests, refrint.SweepRequest{
				Apps:             pair,
				RetentionTimesUS: []float64{50},
				EffortScale:      backgroundEffort * opt.scale,
				Seed:             seed,
			})
		}
		r.reqs = body.Requests
		var view server.BatchView
		r.submitted = time.Now()
		data, err := cli.do(ctx, http.MethodPost, "/v1/batches", r.reqID, body)
		if err == nil {
			err = json.Unmarshal(data, &view)
		}
		r.err = err
		r.batchID = view.ID
		for _, j := range view.Jobs {
			r.jobs = append(r.jobs, j.ID)
		}
		rounds = append(rounds, r)
		return r
	}
	current := submitRound()
	for ctx.Err() == nil {
		now := time.Now()
		if !now.Before(end) {
			break
		}
		due := start.Add(time.Duration(float64(len(inter)) / interactiveRate * float64(time.Second)))
		if !now.Before(due) {
			i := len(inter)
			r := &interactiveReq{
				seq:    i,
				reqID:  "bench-i-" + strconv.Itoa(i),
				req:    interactiveRequest(interactiveApps[i%len(interactiveApps)], serviceSeed(opt.seed, kindInteractive, i), opt.scale),
				due:    due,
				traced: i%2 == 0,
			}
			r.sent = time.Now()
			var view server.JobView
			data, err := cli.do(ctx, http.MethodPost, "/v1/sweeps", r.reqID, r.req)
			r.answered = time.Now()
			if err == nil {
				err = json.Unmarshal(data, &view)
			}
			r.err, r.jobID = err, view.ID
			inter = append(inter, r)
			continue
		}
		if current.err == nil && fh.allEnded(current.jobs) {
			current = submitRound()
			continue
		}
		wake := due
		if end.Before(wake) {
			wake = end
		}
		select {
		case <-fh.bell:
		case <-time.After(wake.Sub(now)):
		case <-ctx.Done():
		}
	}
	return inter, rounds
}

// requestCells returns the distinct cells of a request with the number of
// references each simulates.
func requestCells(req refrint.SweepRequest) (map[sweep.CellKey]int64, error) {
	opts, err := req.Options()
	if err != nil {
		return nil, err
	}
	cells := make(map[sweep.CellKey]int64)
	cs, points := sweepCells(opts)
	for i, c := range cs {
		cells[opts.CellKey(c.app, points[i])] = c.refs()
	}
	return cells, nil
}

// delivery is a job that ended done, and when.
type delivery struct {
	at  time.Time
	req refrint.SweepRequest
}

// roundRates measures the service's throughput once per complete
// background round: the cells first delivered while the round ran, and
// their references, per second of the round.  Rounds run back to back, so
// their medians are robust to a burst of interference on a shared host.
// It also returns how many distinct cells were delivered in all.
func roundRates(delivered []delivery, rounds []*bgRound) (cells int, refsRate, cellsRate []float64, err error) {
	sort.Slice(delivered, func(i, j int) bool { return delivered[i].at.Before(delivered[j].at) })
	seen := make(map[sweep.CellKey]bool)
	newCells := make([]float64, len(delivered))
	newRefs := make([]float64, len(delivered))
	for i, d := range delivered {
		cs, err := requestCells(d.req)
		if err != nil {
			return 0, nil, nil, err
		}
		for k, refs := range cs {
			if !seen[k] {
				seen[k] = true
				newCells[i]++
				newRefs[i] += float64(refs)
			}
		}
	}
	for _, r := range rounds {
		if !r.complete {
			continue
		}
		var c, refs float64
		for i, d := range delivered {
			if d.at.After(r.submitted) && !d.at.After(r.ended) {
				c += newCells[i]
				refs += newRefs[i]
			}
		}
		secs := r.ended.Sub(r.submitted).Seconds()
		cellsRate = append(cellsRate, ratio(c, secs))
		refsRate = append(refsRate, ratio(refs, secs))
	}
	return len(seen), refsRate, cellsRate, nil
}

// checkJobResults compares a job's served results with a sweep of the same
// request run in this process, and adds that sweep's cells to counts.
func checkJobResults(ctx context.Context, cli *svcClient, r *interactiveReq, counts *modelCounts) error {
	var got sweep.Export
	if err := cli.getJSON(ctx, "/v1/sweeps/"+r.jobID+"/results", &got); err != nil {
		return err
	}
	opts, err := r.req.Options()
	if err != nil {
		return err
	}
	res, err := refrint.RunSweep(opts)
	if err != nil {
		return err
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		return err
	}
	wantJSON, err := json.Marshal(res.Export())
	if err != nil {
		return err
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		return errors.New("served results differ from the same sweep run in process")
	}
	cs, points := sweepCells(opts)
	for i, c := range cs {
		if run, ok := res.Lookup(c.app, points[i]); ok {
			counts.add(run.Result)
		}
	}
	return nil
}

// promCounter reads one unlabelled sample from a Prometheus exposition.
func promCounter(text []byte, name string) (float64, bool) {
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f, err == nil
		}
	}
	return 0, false
}

// traceService turns the client's timings of the traced interactive
// requests and the server's trace timelines of every job into spans, and
// derives the service's per-layer metrics from them.  A request's server
// spans carry its X-Request-Id as their trace ID.
func traceService(ctx context.Context, cli *svcClient, fh *firehose, tr *tracer, inter []*interactiveReq, rounds []*bgRound, rep *report) error {
	var admit, queue, exec, persist, delivery, bgExec []float64
	for _, r := range inter {
		e, ok := fh.ending(r.jobID)
		if !r.traced || r.err != nil || !ok || e.state != server.StateDone {
			continue
		}
		var tv server.TraceView
		if err := cli.getJSON(ctx, "/v1/sweeps/"+r.jobID+"/trace", &tv); err != nil {
			return err
		}
		root := tr.add(0, "request", r.reqID, r.due, e.at, 0)
		tr.add(root, "http.POST", r.reqID, r.sent, r.answered, 0)
		addServerSpans(tr, root, tv)
		phases := phaseSeconds(tv)
		admit = append(admit, 1e3*(phases["received"]+phases["validated"]))
		queue = append(queue, 1e3*phases["queued"])
		exec = append(exec, 1e3*phases["executing"])
		persist = append(persist, 1e3*phases["persisting"])
		delivery = append(delivery, 1e3*(e.at.Sub(r.sent).Seconds()-tv.TotalSeconds))
	}
	for _, r := range rounds {
		if r.err != nil {
			continue
		}
		var bt server.BatchTraceView
		if err := cli.getJSON(ctx, "/v1/batches/"+r.batchID+"/trace", &bt); err != nil {
			return err
		}
		for _, tv := range bt.Traces {
			if len(tv.Spans) == 0 {
				continue
			}
			first, last := tv.Spans[0], tv.Spans[len(tv.Spans)-1]
			root := tr.add(0, "background.job", tv.TraceID, first.At, last.At, 0)
			addServerSpans(tr, root, tv)
			bgExec = append(bgExec, phaseSeconds(tv)["executing"])
		}
	}
	rep.layer["server.admit_ms_p50"] = percentile(admit, 50)
	rep.layer["sched.queue_wait_ms_p50"] = percentile(queue, 50)
	rep.layer["sched.queue_wait_ms_p90"] = percentile(queue, 90)
	rep.layer["sweep.exec_ms_p50"] = percentile(exec, 50)
	rep.layer["store.persist_ms_p50"] = percentile(persist, 50)
	rep.layer["server.delivery_ms_p50"] = percentile(delivery, 50)
	rep.layer["sched.bg_exec_s_p50"] = percentile(bgExec, 50)
	return nil
}

// addServerSpans adds one span per phase of a server trace timeline under
// root.  A phase ends where the next begins, on the same wall clock the
// client's spans use.
func addServerSpans(tr *tracer, root int, tv server.TraceView) {
	for i, s := range tv.Spans {
		end := s.At.Add(time.Duration(s.Seconds * float64(time.Second)))
		if i+1 < len(tv.Spans) {
			end = tv.Spans[i+1].At
		}
		tr.add(root, "server."+s.Phase, tv.TraceID, s.At, end, 0)
	}
}

// phaseSeconds sums a trace timeline's seconds by phase.
func phaseSeconds(tv server.TraceView) map[string]float64 {
	out := make(map[string]float64, len(tv.Spans))
	for _, s := range tv.Spans {
		out[s.Phase] += s.Seconds
	}
	return out
}
