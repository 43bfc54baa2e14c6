// Command perfbench is the repository's benchmark. It builds nothing
// itself: run.sh builds oracled and this program from the tree, then runs
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It generates the workload's graphs, query streams and update steps from
// the seed, starts oracled as a child process, drives it over loopback
// HTTP with at most two connections, checks every answer against
// from-scratch references, and prints one JSON object as its last line of
// standard output. With --trace 0 the object holds the end-to-end metrics;
// with --trace 1 it holds the per-layer metrics of an in-process traced
// replay of the same inputs, plus the daemon's CPU per query from an
// untraced HTTP run. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/serve"
	"repro/internal/store"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark run.
type config struct {
	w        workload
	sz       sizes
	seed     uint64
	seconds  float64
	trace    bool
	oracled  string // daemon binary
	workDir  string // scratch space for data directories and traces
	traceOut string // directory the span tree is written to
	log      io.Writer
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay")
	oracled := flag.String("oracled", filepath.Join(".bench_build", "oracled"), "oracled binary")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "run"), "scratch directory")
	flag.Parse()
	w, err := findWorkload(fullSizes, *name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{
		w: w, sz: fullSizes, seed: *seed, seconds: *seconds, trace: *trace == 1,
		oracled: *oracled, workDir: *workDir, traceOut: filepath.Join(*workDir, "..", "trace"), log: os.Stderr,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run performs one benchmark run and returns its result line.
func run(cfg config) (*result, error) {
	in, err := makeInputs(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(cfg.oracled); err != nil {
		return nil, fmt.Errorf("oracled binary: %w", err)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	h, err := runHTTP(cfg, in, filepath.Join(dir, "data"))
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: h.t.attempted, Failed: h.t.failed}
	if !cfg.trace {
		res.Metrics = h.endToEnd()
	} else {
		lm, t, err := runTraced(cfg, in, dir, h)
		if err != nil {
			return nil, err
		}
		res.Metrics = lm
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// httpOut is everything the HTTP run measured.
type httpOut struct {
	t           tally
	setupS      float64
	setupWrites int64
	read        *readOut // nil for churn_fresh
	churn       churnOut
	rssMB       float64
}

// runHTTP is the untraced run: oracled as a child, driven over loopback.
func runHTTP(cfg config, in *inputs, dataDir string) (*httpOut, error) {
	var extra []string
	if cfg.w.churn.durable {
		extra = []string{"-datadir", dataDir}
	}
	d, err := startDaemon(cfg.oracled, extra...)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	h := &httpOut{}
	ci := in.churn
	if cfg.w.read != nil {
		// The probe runs first, on a daemon that holds nothing else yet, so
		// its builds do not share a heap with the large read graph.
		text, err := graphioText(ci.g)
		if err != nil {
			return nil, err
		}
		if st, reply, err := d.do("POST", "/graphs", specBody("probe", text)); err != nil || st != http.StatusCreated {
			return nil, fmt.Errorf("create probe graph: status %d: %v %s", st, err, reply)
		}
		if h.churn, err = churnPhase(d, "/graphs/probe", ci, cfg.w.churn, cfg.seconds, &h.t); err != nil {
			return nil, err
		}
		if st, reply, err := d.do("DELETE", "/graphs/probe", nil); err != nil || st != http.StatusOK {
			return nil, fmt.Errorf("delete probe graph: status %d: %v %s", st, err, reply)
		}
	}
	var path string
	h.setupS, path, h.setupWrites, err = setupPhase(d, "g", in.graphio, cfg.sz.setups, &h.t)
	if err != nil {
		return nil, err
	}
	if cfg.w.read != nil {
		ck := newChecker(in.g)
		ro, err := readPhase(d, path, in.clients, cfg.seconds, ck, &h.t)
		if err != nil {
			return nil, err
		}
		h.read, h.rssMB = &ro, ro.rssMB
		fmt.Fprintf(cfg.log, "%s reads: %d queries in %.2fs, %d batches, %d replies identical to verified ones, %d checked in full\n",
			cfg.w.name, ro.queries, ro.seconds, ro.batches, ro.verifiedReplies, ro.mismatchedReplies)
	} else {
		if h.churn, err = churnPhase(d, path, ci, cfg.w.churn, cfg.seconds, &h.t); err != nil {
			return nil, err
		}
		h.rssMB = h.churn.rssMB
	}
	fmt.Fprintf(cfg.log, "%s churn: %d timed steps in %.2fs (fsync policy: %s)\n",
		cfg.w.name, h.churn.steps, h.churn.seconds, fsyncPolicy(cfg.w.churn.durable))
	return h, nil
}

// fsyncPolicy names the WAL sync policy a churn phase runs under: oracled
// is started without -fsync, so a durable graph uses the flag's default.
func fsyncPolicy(durable bool) string {
	if !durable {
		return "none, in memory"
	}
	return store.FsyncCommit + " (oracled's default)"
}

// endToEndUnits lists the end-to-end metrics and their units.
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"server_rss_mb":     "MiB",
	"setup_writes":      "count",
	"queries_per_s":     "1/s",
	"batch_p50_ms":      "ms",
	"batch_p90_ms":      "ms",
	"reads_per_query":   "count",
	"writes_per_query":  "count",
	"update_p50_ms":     "ms",
	"fresh_conn_p50_ms": "ms",
	"fresh_bicc_p50_ms": "ms",
	"fresh_bicc_p90_ms": "ms",
	"writes_per_update": "count",
}

// endToEnd assembles the end-to-end metrics. On the read workloads the
// read metrics come from the read window (each the median over its
// one-second slices) and the update metrics from the churn probe; on
// churn_fresh the read metrics come from the steps' conn batches (latency)
// and from all their queries (throughput, counts).
func (h *httpOut) endToEnd() map[string]metric {
	c := h.churn
	v := map[string]float64{
		"setup_s":           h.setupS,
		"server_rss_mb":     h.rssMB,
		"setup_writes":      float64(h.setupWrites),
		"update_p50_ms":     median(c.updateMs),
		"fresh_conn_p50_ms": median(c.freshConnMs),
		"fresh_bicc_p50_ms": median(c.freshBiccMs),
		"fresh_bicc_p90_ms": quantile(c.freshBiccMs, 0.9),
		"writes_per_update": c.writesPerUpdate,
	}
	if r := h.read; r != nil {
		var qps, p50, p90 []float64
		width := r.seconds / float64(len(r.slices))
		for _, sl := range r.slices {
			qps = append(qps, float64(sl.queries)/width)
			p50 = append(p50, median(sl.batchMs))
			p90 = append(p90, quantile(sl.batchMs, 0.9))
		}
		v["queries_per_s"] = median(qps)
		v["batch_p50_ms"] = median(p50)
		v["batch_p90_ms"] = median(p90)
		v["reads_per_query"] = r.readsPerQuery
		v["writes_per_query"] = r.writesPerQuery
	} else {
		v["queries_per_s"] = float64(c.queries) / c.seconds
		v["batch_p50_ms"] = median(c.connBatchMs)
		v["batch_p90_ms"] = quantile(c.connBatchMs, 0.9)
		v["reads_per_query"] = c.readsPerQuery
		v["writes_per_query"] = c.writesPerQuery
	}
	return withUnits(v, endToEndUnits)
}

func withUnits(v map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(v))
	for name, x := range v {
		out[name] = metric{Value: x, Unit: units[name]}
	}
	return out
}

// strategies are the publish-path rungs a rebuild record can name.
var strategies = []string{
	serve.StrategyPatchedInsert, serve.StrategyPatchedDelete, serve.StrategyRebased, serve.StrategyLazy, serve.StrategyFull,
}

// perLayerUnits lists the per-layer metrics and their units.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"http.decode_us_per_query":      "us",
		"http.encode_us_per_query":      "us",
		"http.self_ms_p50":              "ms",
		"engine.do_ms_p50":              "ms",
		"engine.queue_wait_ms_p90":      "ms",
		"engine.result_cache_hit_ratio": "ratio",
		"engine.result_cache_lookups":   "count",
		"engine.batch_dedup_ratio":      "ratio",
		"engine.batch_dedup_lookups":    "count",
		"conn.query_us":                 "us",
		"conn.reads_per_query":          "count",
		"bicc.query_us":                 "us",
		"bicc.cluster_cache_hit_ratio":  "ratio",
		"bicc.cluster_cache_lookups":    "count",
		"bicc.reads_per_query":          "count",
		"graphio.parse_s":               "s",
		"conn.build_s":                  "s",
		"bicc.build_s":                  "s",
		"registry.create_s":             "s",
		"conn.build_writes":             "count",
		"bicc.build_writes":             "count",
		"update.publish_ms_p50":         "ms",
		"update.lazy_build_ms_p50":      "ms",
		"update.publish_writes":         "count",
		"update.lazy_build_writes":      "count",
		"store.append_ms_p50":           "ms",
		"store.commit_ms_p50":           "ms",
		"oracled.cpu_us_per_query":      "us",
		"trace.overhead_pct":            "%",
	}
	for _, o := range []string{"conn", "bicc"} {
		for _, s := range strategies {
			u["update.rung."+o+"."+s] = "count"
		}
	}
	return u
}()

// runTraced replays the inputs in-process twice, untraced and traced,
// writes the traced span tree, and derives the per-layer metrics.
func runTraced(cfg config, in *inputs, dir string, h *httpOut) (map[string]metric, tally, error) {
	var t tally
	var reps [2]*replayer
	var tracers [2]*tracer
	for i, on := range []bool{false, true} {
		tracers[i] = newTracer(on)
		r, err := replay(cfg.w, in, tracers[i], filepath.Join(dir, "replay-data-"+strconv.Itoa(i)))
		if err != nil {
			return nil, t, err
		}
		reps[i] = r
		t.add(r.failed)
	}
	overhead := (reps[1].wall.Seconds()/reps[0].wall.Seconds() - 1) * 100
	spans := tracers[1].spans
	if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
		return nil, t, err
	}
	out := filepath.Join(cfg.traceOut, fmt.Sprintf("%s-seed%d.json", cfg.w.name, cfg.seed))
	if err := writeTrace(out, cfg.log, cfg.w.name, cfg.seed, overhead, spans); err != nil {
		return nil, t, fmt.Errorf("write trace: %w", err)
	}
	v := layerMetrics(cfg.w, reps[1], spans)
	v["trace.overhead_pct"] = overhead
	if h.read != nil {
		v["oracled.cpu_us_per_query"] = h.read.cpuUsPerQuery
	} else {
		v["oracled.cpu_us_per_query"] = h.churn.cpuUsPerQuery
	}
	for name := range perLayerUnits {
		if _, ok := v[name]; !ok {
			return nil, t, errors.New("per-layer metric " + name + " not computed")
		}
	}
	return withUnits(v, perLayerUnits), t, nil
}

// layerMetrics derives the per-layer metrics from the traced replay. The
// request-path metrics cover the measured read pass on the read workloads
// and the timed churn steps on churn_fresh. A layer the workload does not
// reach reports 0 (store.* off churn_fresh; bicc.* on conn_uniform and
// conn.* on bicc_skewed, whose streams hold no queries of those kinds).
func layerMetrics(w workload, r *replayer, spans []span) map[string]float64 {
	reqPhase := "steps"
	if w.read != nil {
		reqPhase = "read"
	}
	self := selfTimes(spans)
	var decode, encode, queries int64
	var connNs, biccNs, connN, biccN int64
	var doMs, queueMs, httpSelfMs, publishMs, appendMs, commitMs []float64
	setupS := map[string]float64{}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	doOf := map[int64]int64{} // http.request id -> its engine.do duration
	for _, s := range spans {
		switch s.Name {
		case "graphio.read", "conn.build", "bicc.build", "registry.create":
			setupS[s.Name] = float64(s.dur()) / 1e9
		case "conn.answer":
			connNs += s.dur()
			connN++
		case "bicc.answer":
			biccNs += s.dur()
			biccN++
		}
		if s.Phase == "steps" {
			switch s.Name {
			case "engine.update":
				publishMs = append(publishMs, ms(self[s.ID]))
			case "store.log_update":
				appendMs = append(appendMs, ms(s.dur()))
			case "store.epoch_published":
				commitMs = append(commitMs, ms(s.dur()))
			}
		}
		if s.Phase == reqPhase {
			switch s.Name {
			case "json.decode":
				decode += s.dur()
			case "json.encode":
				encode += s.dur()
			case "engine.do":
				doMs = append(doMs, ms(s.dur()))
				doOf[s.Parent] = s.dur()
			case "engine.queue":
				queueMs = append(queueMs, ms(s.dur()))
			}
		}
	}
	// A request span ends after its engine.do child, so it is read in a
	// second pass over the complete map.
	for _, s := range spans {
		if s.Name == "http.request" && s.Phase == reqPhase {
			queries += int64(s.N)
			httpSelfMs = append(httpSelfMs, ms(s.dur()-doOf[s.ID]))
		}
	}
	perQuery := func(ns int64) float64 { return float64(ns) / 1e3 / float64(max(queries, 1)) }
	perN := func(x, n int64) float64 { return float64(x) / float64(max(n, 1)) }
	c := r.caches
	rcLookups := c.rcHits + c.rcMisses
	ccLookups := c.ccHits + c.ccMisses
	sum := func(xs []int64) (t int64) {
		for _, x := range xs {
			t += x
		}
		return t
	}
	v := map[string]float64{
		"http.decode_us_per_query":      perQuery(decode),
		"http.encode_us_per_query":      perQuery(encode),
		"http.self_ms_p50":              median(httpSelfMs),
		"engine.do_ms_p50":              median(doMs),
		"engine.queue_wait_ms_p90":      quantile(queueMs, 0.9),
		"engine.result_cache_hit_ratio": perN(c.rcHits, rcLookups),
		"engine.result_cache_lookups":   float64(rcLookups),
		"engine.batch_dedup_ratio":      perN(c.dedup, c.dedup+rcLookups),
		"engine.batch_dedup_lookups":    float64(c.dedup + rcLookups),
		"conn.query_us":                 perN(connNs, connN) / 1e3,
		"conn.reads_per_query":          perN(r.connReads, connN),
		"bicc.query_us":                 perN(biccNs, biccN) / 1e3,
		"bicc.cluster_cache_hit_ratio":  perN(c.ccHits, ccLookups),
		"bicc.cluster_cache_lookups":    float64(ccLookups),
		"bicc.reads_per_query":          perN(r.biccReads, biccN),
		"graphio.parse_s":               setupS["graphio.read"],
		"conn.build_s":                  setupS["conn.build"],
		"bicc.build_s":                  setupS["bicc.build"],
		"registry.create_s":             setupS["registry.create"],
		"conn.build_writes":             float64(r.build["conn"].Writes),
		"bicc.build_writes":             float64(r.build["bicc"].Writes),
		"update.publish_ms_p50":         median(publishMs),
		"update.lazy_build_ms_p50":      median(r.lazyBuildMs),
		"update.publish_writes":         perN(sum(r.publishW), int64(len(r.publishW))),
		"update.lazy_build_writes":      perN(sum(r.lazyW), int64(len(r.lazyW))),
		"store.append_ms_p50":           median(appendMs),
		"store.commit_ms_p50":           median(commitMs),
	}
	for _, o := range []string{"conn", "bicc"} {
		for _, s := range strategies {
			v["update.rung."+o+"."+s] = float64(r.rungs[o+"."+s])
		}
	}
	return v
}
