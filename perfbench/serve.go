package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/dataset"
	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

const (
	// tipsydSeed is the deployment tipsyd runs: its -seed default. The
	// daemon's environment is fixed and the benchmark seed draws the
	// request sequence, so runs compare one deployment across request
	// mixes; a seeded topology moved what-if latency by 2x from seed
	// to seed, which no bound could hold.
	tipsydSeed = 1
	// tipsydTrainDays is tipsyd's -train-days default: its bootstrap
	// ingests this many days and trains on them.
	tipsydTrainDays = 8
	serveSetups     = 5
	// One round sends serveWhatifs what-if and serveLookups lookup
	// requests in a fixed seeded order, plus the malformed requests.
	serveWhatifs = 6000
	serveLookups = 6000
	serveConns   = 2
	// scoreDays of telemetry after the training window score the
	// served model.
	scoreDays = 14
	// offlineSample requests per kind are compared with the offline
	// ensemble's answers.
	offlineSample = 200
)

// malformedAddrs are source addresses tipsyd must refuse with a 4xx.
// cmd/tipsyd.parseIPv4 reads them with fmt.Sscanf, which accepts
// trailing junk, a fifth octet and a sign, so today each is answered
// 200 and counted as a failed operation.
var malformedAddrs = []string{"1.2.3.4junk", "1.2.3.4.5", "+1.2.3.4"}

const (
	kindWhatif = iota
	kindLookup
	kindMalformed
)

var kindNames = []string{"whatif", "lookup", "malformed"}

// mirror is the environment cmd/tipsyd builds for a seed
// (newServerCfg in cmd/tipsyd/main.go) with the model its bootstrap
// trains, built offline. Keep the configuration in step with tipsyd's.
type mirror struct {
	sim         *netsim.Sim
	metros      *geo.DB
	w           *traffic.Workload
	model       *served
	geoFall     *core.GeoNearest
	train, test []features.Record
	trainedAt   wan.Hour
}

func newMirror(seed int64) *mirror {
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(seed), metros)
	w := traffic.Generate(traffic.TestConfig(seed+10), g, metros)
	cfg := netsim.DefaultConfig(seed + 20)
	cfg.HorizonHours = wan.Hour(400 * 24)
	cfg.OutagesPerLinkYear = 10
	sim := netsim.New(cfg, g, metros, w)
	to := wan.Hour(tipsydTrainDays * 24)
	ingest := func(from, to wan.Hour) []features.Record {
		agg := pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata)
		sim.Run(netsim.RunOptions{From: from, To: to, Sink: agg})
		return agg.Records()
	}
	m := &mirror{sim: sim, metros: metros, w: w, trainedAt: to, geoFall: core.NewGeoNearest(sim, metros)}
	m.train = dataset.Window(ingest(0, to), 0, to)
	m.test = ingest(to, to+scoreDays*24)
	m.model = trainServed(m.train, sim, metros, nil, 0)
	return m
}

// ladder answers a query the way tipsyd's fallback ladder does.
func (m *mirror) ladder(q core.Query) ([]core.Prediction, string) {
	if p := m.model.model.Predict(q); len(p) > 0 {
		return p, "ensemble"
	}
	if p := m.model.hA.Predict(q); len(p) > 0 {
		return p, "historical"
	}
	if p := m.geoFall.Predict(q); len(p) > 0 {
		return p, "geo"
	}
	return nil, "none"
}

// wire formats of /v1/predict, as tipsyd defines them.
type flowJSON struct {
	SrcAddr string  `json:"src_addr"`
	SrcAS   uint32  `json:"src_as"`
	Region  uint16  `json:"region"`
	Service uint8   `json:"service"`
	Bytes   float64 `json:"bytes"`
}

type requestJSON struct {
	Flows        []flowJSON   `json:"flows"`
	ExcludeLinks []wan.LinkID `json:"exclude_links,omitempty"`
	K            int          `json:"k"`
}

type responseJSON struct {
	Results []struct {
		Flow  int    `json:"flow"`
		Model string `json:"model"`
		Links []struct {
			Link  wan.LinkID `json:"link"`
			Frac  float64    `json:"frac"`
			Bytes float64    `json:"bytes"`
		} `json:"links"`
	} `json:"results"`
	Shifted map[wan.LinkID]float64 `json:"shifted"`
}

// request is one prepared HTTP request with what the checks need to
// know about it.
type request struct {
	kind    int
	body    []byte
	flows   []traffic.FlowSpec
	exclude []wan.LinkID
}

func flowOf(f *traffic.FlowSpec) flowJSON {
	return flowJSON{SrcAddr: bgp.FormatIP(f.SrcAddr), SrcAS: uint32(f.SrcAS),
		Region: uint16(f.DstRegion), Service: uint8(f.DstType), Bytes: f.BaseBps * 3600 / 8}
}

func newRequest(kind int, flows []traffic.FlowSpec, exclude []wan.LinkID) request {
	body := requestJSON{K: 3, ExcludeLinks: exclude}
	for i := range flows {
		body.Flows = append(body.Flows, flowOf(&flows[i]))
	}
	buf, _ := json.Marshal(body) // plain structs: cannot fail
	return request{kind: kind, body: buf, flows: flows, exclude: exclude}
}

// buildRound makes the fixed, seeded request sequence of one round.
func buildRound(m *mirror, seed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	type gkey struct {
		prefix bgp.Prefix
		link   wan.LinkID
	}
	groups := map[gkey][]traffic.FlowSpec{}
	for i := range m.w.Flows {
		f := &m.w.Flows[i]
		var top netsim.LinkShare
		for _, s := range m.sim.ResolveFlow(f, m.trainedAt) {
			if s.Frac > top.Frac || (s.Frac == top.Frac && s.Link < top.Link) {
				top = s
			}
		}
		if top.Link == 0 {
			continue
		}
		k := gkey{m.sim.FlowPrefix(f), top.Link}
		groups[k] = append(groups[k], *f)
	}
	var keys []gkey
	for k := range groups {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return nil, errors.New("no flow resolves to a link")
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].prefix.Addr != keys[j].prefix.Addr {
			return keys[i].prefix.Addr < keys[j].prefix.Addr
		}
		return keys[i].link < keys[j].link
	})
	var reqs []request
	// A what-if asks, as cms.mitigate does, where all flows of one
	// prefix go when their top link L is withdrawn.
	for i := 0; i < serveWhatifs; i++ {
		k := keys[rng.Intn(len(keys))]
		reqs = append(reqs, newRequest(kindWhatif, groups[k], []wan.LinkID{k.link}))
	}
	for i := 0; i < serveLookups; i++ {
		f := m.w.Flows[rng.Intn(len(m.w.Flows))]
		reqs = append(reqs, newRequest(kindLookup, []traffic.FlowSpec{f}, nil))
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	// The malformed requests go at fixed, evenly spaced places.
	for i, addr := range malformedAddrs {
		body, _ := json.Marshal(requestJSON{K: 3, Flows: []flowJSON{{SrcAddr: addr, SrcAS: 1, Bytes: 1}}})
		at := (i + 1) * len(reqs) / (len(malformedAddrs) + 1)
		reqs = append(reqs[:at], append([]request{{kind: kindMalformed, body: body}}, reqs[at:]...)...)
	}
	return reqs, nil
}

// daemon is a running tipsyd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// startDaemon launches tipsyd with its default flags except a loopback
// listener, no diagnostic bundles and a simulated day longer than any
// run, and waits for its first 200 on /healthz.
func startDaemon(bin string, seed int64) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-listen", addr, "-seed", strconv.FormatInt(seed, 10),
		"-bundle-dir=", "-day-every", "1h")
	// The daemon dies with the benchmark, even when the benchmark is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tipsyd: %w", err)
	}
	go func() {
		_ = cmd.Wait() // the exit status is reported by stop's caller
		close(d.exited)
	}()
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("tipsyd exited before becoming healthy: %v", cmd.ProcessState)
		default:
		}
		if resp, err := client.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return d, nil
			}
		}
		if time.Since(start) > 150*time.Second {
			d.stop()
			return nil, errors.New("tipsyd not healthy after 150s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setupDaemon starts tipsyd, kills it at its first healthy answer and
// returns the CPU time it spent getting there, all threads counted,
// and the peak resident set it reached, in MiB.
func setupDaemon(bin string, seed int64) (time.Duration, float64, error) {
	d, err := startDaemon(bin, seed)
	if err != nil {
		return 0, 0, err
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
	st := d.cmd.ProcessState
	ru, ok := st.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0, errors.New("no resource usage for tipsyd")
	}
	return st.UserTime() + st.SystemTime(), float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB
}

// stop sends SIGTERM, kills tipsyd if it has not exited within 20s,
// and waits until it has.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// get fetches a path from the daemon.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// answer is what the load generator keeps of one response.
type answer struct {
	status  int
	hash    uint64
	start   time.Time
	latency time.Duration
	body    []byte // first round only
	err     error
}

// loadgen is the closed-loop client: serveConns workers, each on its
// own keep-alive connection, take the round's requests in order and
// send the next only after the previous answer has been read.
type loadgen struct {
	base    string
	clients []*http.Client
}

func newLoadgen(base string) *loadgen {
	lg := &loadgen{base: base}
	for i := 0; i < serveConns; i++ {
		lg.clients = append(lg.clients, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		})
	}
	return lg
}

func (lg *loadgen) close() {
	for _, c := range lg.clients {
		c.CloseIdleConnections()
	}
}

// round sends every request once and returns the answers by index.
func (lg *loadgen) round(reqs []request, keepBodies bool) []answer {
	out := make([]answer, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range lg.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			h := fnv.New64a()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				start := time.Now()
				resp, err := c.Post(lg.base+"/v1/predict", "application/json", bytes.NewReader(reqs[i].body))
				if err != nil {
					out[i] = answer{err: err}
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				a := answer{status: resp.StatusCode, start: start, latency: time.Since(start), err: err}
				h.Reset()
				h.Write(body)
				a.hash = h.Sum64()
				if keepBodies {
					a.body = body
				}
				out[i] = a
			}
		}(c)
	}
	wg.Wait()
	return out
}

// checkResponse asserts the invariants of one /v1/predict answer:
// every frac lies in [0,1], each flow's fracs sum to at most 1, no
// excluded link is predicted, and shifted is the sum of per-flow link
// bytes.
func checkResponse(resp *responseJSON, nflows int, exclude []wan.LinkID) error {
	if len(resp.Results) != nflows {
		return fmt.Errorf("%d results for %d flows", len(resp.Results), nflows)
	}
	shifted := map[wan.LinkID]float64{}
	for i, r := range resp.Results {
		var sum float64
		for _, l := range r.Links {
			if l.Frac < 0 || l.Frac > 1 || math.IsNaN(l.Frac) {
				return fmt.Errorf("flow %d: link %d frac %v outside [0,1]", i, l.Link, l.Frac)
			}
			for _, x := range exclude {
				if l.Link == x {
					return fmt.Errorf("flow %d: excluded link %d predicted", i, x)
				}
			}
			sum += l.Frac
			shifted[l.Link] += l.Bytes
		}
		if sum > 1+1e-9 {
			return fmt.Errorf("flow %d: fracs sum to %v", i, sum)
		}
	}
	if len(shifted) != len(resp.Shifted) {
		return fmt.Errorf("shifted names %d links, results %d", len(resp.Shifted), len(shifted))
	}
	for l, b := range shifted {
		if !near(resp.Shifted[l], b, 1e-9) {
			return fmt.Errorf("shifted[%d] = %v, results sum to %v", l, resp.Shifted[l], b)
		}
	}
	return nil
}

// checkOffline asserts tipsyd answered a request as the offline
// mirror of its model does.
func checkOffline(m *mirror, req request, resp *responseJSON) error {
	excluded := map[wan.LinkID]bool{}
	for _, l := range req.exclude {
		excluded[l] = true
	}
	for i := range req.flows {
		f := &req.flows[i]
		ff := features.FlowFeatures{AS: f.SrcAS, Prefix: f.SrcPrefix, Loc: m.sim.GeoIP().Lookup(f.SrcPrefix),
			Region: f.DstRegion, Type: f.DstType}
		want, rung := m.ladder(core.Query{Flow: ff, K: 3, Exclude: func(l wan.LinkID) bool { return excluded[l] }})
		got := resp.Results[i]
		if got.Model != rung || len(got.Links) != len(want) {
			return fmt.Errorf("flow %d: tipsyd answered %d links from %s, offline %d from %s",
				i, len(got.Links), got.Model, len(want), rung)
		}
		for j, p := range want {
			if got.Links[j].Link != p.Link || !near(got.Links[j].Frac, p.Frac, 1e-12) {
				return fmt.Errorf("flow %d rank %d: tipsyd link %d at %v, offline link %d at %v",
					i, j, got.Links[j].Link, got.Links[j].Frac, p.Link, p.Frac)
			}
		}
	}
	return nil
}

// scrape reads /metrics into scalar values and histogram buckets.
type scrape struct {
	scalars map[string]float64
	hists   map[string][]uint64 // per-bucket counts, index i covers [2^(i-1), 2^i)
}

func (d *daemon) scrape() (*scrape, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body)
}

// parseMetrics reads the text exposition obsv.Registry writes.
func parseMetrics(body []byte) (*scrape, error) {
	s := &scrape{scalars: map[string]float64{}, hists: map[string][]uint64{}}
	cum := map[string]uint64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name, val := line[:sp], line[sp+1:]
		if i := strings.Index(name, "_bucket{le=\""); i >= 0 {
			le := strings.TrimSuffix(name[i+len("_bucket{le=\""):], "\"}")
			if le == "+Inf" {
				continue
			}
			hist := name[:i]
			bound, err1 := strconv.ParseUint(le, 10, 64)
			c, err2 := strconv.ParseUint(val, 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad bucket line %q", line)
			}
			b := bits.Len64(bound) // le = 2^b - 1
			for len(s.hists[hist]) <= b {
				s.hists[hist] = append(s.hists[hist], 0)
			}
			s.hists[hist][b] = c - cum[hist]
			cum[hist] = c
			continue
		}
		if strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad metric line %q", line)
		}
		s.scalars[name] = v
	}
	return s, sc.Err()
}

// histP50 is the median of the observations a histogram gained
// between two scrapes, interpolated within its base-2 bucket.
func histP50(before, after *scrape, name string) float64 {
	a, b := after.hists[name], before.hists[name]
	delta := make([]float64, len(a))
	var total float64
	for i := range a {
		delta[i] = float64(a[i])
		if i < len(b) {
			delta[i] -= float64(b[i])
		}
		total += delta[i]
	}
	if total <= 0 {
		return 0
	}
	var seen float64
	for i, n := range delta {
		if n > 0 && seen+n >= total/2 {
			if i == 0 {
				return 0
			}
			lo, hi := math.Ldexp(1, i-1), math.Ldexp(1, i)
			return lo + (hi-lo)*(total/2-seen)/n
		}
		seen += n
	}
	return 0
}

func runServeWhatif(rc runConfig) (*outcome, error) {
	o := newOutcome()
	m := newMirror(tipsydSeed)
	reqs, err := buildRound(m, rc.seed)
	if err != nil {
		return nil, err
	}

	// Set-up is tipsyd's start, bootstrap ingest and first training,
	// up to its first healthy answer. It is measured on serveSetups
	// daemons killed at that answer; one more serves the run.
	var setups, setupRSS []float64
	for i := 0; i < serveSetups; i++ {
		took, rss, err := setupDaemon(rc.tipsyd, tipsydSeed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		setupRSS = append(setupRSS, rss)
	}
	d, err := startDaemon(rc.tipsyd, tipsydSeed)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	pid := d.cmd.Process.Pid

	lg := newLoadgen(d.base)
	defer lg.close()
	tr := rc.tr

	// The first round warms connections and caches; its answers are
	// decoded and checked in full, and every later round must answer
	// each request byte for byte the same.
	first := lg.round(reqs, true)
	rounds := [][]answer{first}
	var before *scrape
	if tr != nil {
		if before, err = d.scrape(); err != nil {
			return nil, err
		}
	}
	cpuD0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	cpuL0 := selfCPU()
	var passes []float64
	var lat [2][]time.Duration
	end := deadline(rc.seconds)
	for len(passes) == 0 || time.Now().Before(end) {
		root := tr.pass("serve_whatif.round")
		start, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		ans := lg.round(reqs, false)
		stop, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		passes = append(passes, (stop - start).Seconds())
		tr.end(root)
		if tr != nil {
			for i, a := range ans {
				tr.record("tipsyd.request."+kindNames[reqs[i].kind], root, a.start, a.start.Add(a.latency))
			}
		}
		for i, a := range ans {
			if reqs[i].kind != kindMalformed && a.err == nil {
				lat[reqs[i].kind] = append(lat[reqs[i].kind], a.latency)
			}
		}
		rounds = append(rounds, ans)
	}
	cpuD1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	cpuL1 := selfCPU()
	rss, err := peakRSSMiB(strconv.Itoa(pid))
	if err != nil {
		return nil, err
	}
	var after *scrape
	if tr != nil {
		if after, err = d.scrape(); err != nil {
			return nil, err
		}
	}

	whatif, lookup := millis(lat[kindWhatif]), millis(lat[kindLookup])
	o.set("setup_s", median(setups), "s")
	o.set("pass_cpu_s", median(passes), "s")
	// tipsyd's peak is set in its bootstrap training, where one
	// process's mark moved by ~10% with GC timing; the median over the
	// set-up daemons holds it, and the serving daemon's own peak
	// counts when serving pushed it higher.
	o.set("peak_rss_mb", math.Max(median(setupRSS), rss), "MiB")

	if tr != nil {
		n := float64(len(passes))
		us := func(name string) float64 { return histP50(before, after, name) / 1e3 }
		delta := func(name string) float64 { return (after.scalars[name] - before.scalars[name]) / n }
		o.layer("tipsyd.feature_encode.p50_us", us("tipsyd_predict_feature_encode_ns"))
		o.layer("tipsyd.predict.p50_us", us("tipsyd_predict_predict_ns"))
		handler := us("tipsyd_predict_total_ns")
		o.layer("tipsyd.handler.p50_us", handler)
		o.layer("tipsyd.rung.ensemble.p50_us", us("tipsyd_rung_ensemble_ns"))
		for _, rung := range []string{"ensemble", "historical", "geo", "none"} {
			o.layer("tipsyd.answers."+rung, delta("tipsyd_fallback_"+rung+"_total"))
		}
		all := append(append([]float64(nil), whatif...), lookup...)
		o.layer("tipsyd.http.p50_us", quantile(all, 0.5)*1e3-handler)
		o.layer("monitor.predictions", delta("monitor_predictions_total"))
		o.layer("tipsyd.cpu_s", (cpuD1-cpuD0).Seconds()/n)
		o.layer("loadgen.cpu_s", (cpuL1-cpuL0).Seconds()/n)
		o.layer("loadgen.lookup_p50_ms", quantile(lookup, 0.5))
		o.layer("loadgen.lookup_p99_ms", quantile(lookup, 0.99))
		o.layer("loadgen.whatif_p50_ms", quantile(whatif, 0.5))
		o.layer("loadgen.whatif_p99_ms", quantile(whatif, 0.99))
		o.layer("runtime.gc_cycles", delta("runtime_gc_cycles"))
		o.layer("runtime.gc_pause_s", delta("runtime_gc_pause_ns_sum")/1e9)
	}
	d.stop()

	// Operations: every request of every round, the first included.
	for _, ans := range rounds {
		for i, a := range ans {
			o.attempted++
			ok := a.err == nil && a.status == http.StatusOK
			if reqs[i].kind == kindMalformed {
				ok = a.err == nil && a.status >= 400 && a.status < 500
			}
			if !ok {
				o.failed++
			}
		}
	}
	checkServe(o, m, reqs, rounds)
	scoreMirror(o, m)
	return o, nil
}

// checkServe checks the first round's answers in full and every later
// round's against the first.
func checkServe(o *outcome, m *mirror, reqs []request, rounds [][]answer) {
	first := rounds[0]
	perKind := map[int]int{}
	for i, req := range reqs {
		a := first[i]
		if req.kind == kindMalformed || a.err != nil || a.status != http.StatusOK {
			continue
		}
		var resp responseJSON
		if err := json.Unmarshal(a.body, &resp); err != nil {
			o.checkErr(fmt.Sprintf("request %d response", i), err)
			continue
		}
		o.checkErr(fmt.Sprintf("request %d invariants", i), checkResponse(&resp, len(req.flows), req.exclude))
		if perKind[req.kind] < offlineSample && len(resp.Results) == len(req.flows) {
			perKind[req.kind]++
			o.checkErr(fmt.Sprintf("request %d vs offline model", i), checkOffline(m, req, &resp))
		}
	}
	for r, ans := range rounds[1:] {
		for i, a := range ans {
			if reqs[i].kind != kindMalformed && a.err == nil && first[i].err == nil && a.hash != first[i].hash {
				o.check(false, "round %d request %d: answer differs from the first round's", r+1, i)
			}
		}
	}
}

// scoreMirror reports the accuracy of the served model — the offline
// mirror, which checkServe holds to tipsyd's answers — on the
// scoreDays days after its training window.
func scoreMirror(o *outcome, m *mirror) {
	to := m.trainedAt
	view := newOutageView(m.train, m.test, to, to+scoreDays*24, nil, 0)
	acc := eval.Accuracy(m.model.model, m.test, eval.Options{Ks: []int{1, 3}})
	accOut := eval.Accuracy(m.model.model, m.test, view.options(true))
	o.checkErr("accuracy", checkAccuracy(acc, refAccuracy(m.model.model, m.test, []int{1, 3}, nil, nil)))
	o.checkErr("outage accuracy", checkAccuracy(accOut,
		refAccuracy(m.model.model, m.test, []int{1, 3}, view.selectOutage, view.exclude)))
	o.set("acc_k1", acc[1], "ratio")
	o.set("acc_k3", acc[3], "ratio")
	o.set("acc_k1_outage", accOut[1], "ratio")
	o.set("acc_k3_outage", accOut[3], "ratio")
}
