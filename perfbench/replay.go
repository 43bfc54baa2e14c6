package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/asym"
	"repro/internal/bicc"
	"repro/internal/conn"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/oracle"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/store"
)

// The in-process replay sends a workload's seeded inputs through the same
// public entry points an HTTP request passes — the /batch JSON codec,
// Engine.DoWait, the oracle adapters' AnswerFast, graphio.Read, the oracle
// builds, Registry.Create, Engine.Update and the durable log behind
// Config.Persist — and wraps each call in a span. Nothing inside the
// program is instrumented: every span is recorded here, around the call.

// oracledSeed and oracledOmega mirror oracled's flag defaults, so the
// replay builds the same oracles the daemon serves.
const (
	oracledSeed  = 7
	oracledOmega = 64
)

// adapterSample caps the queries the adapter pass answers, and
// replaySteps the timed churn steps the replay runs, so a traced run (one
// HTTP run and two replays) stays well within its time limit.
const (
	adapterSample = 32768
	replaySteps   = 100
)

// replayer runs one replay. Its tracer is a no-op for the untraced pass.
type replayer struct {
	w   workload
	in  *inputs
	tr  *tracer
	log *tracedPersist

	mu      sync.Mutex
	records map[int64]serve.RebuildRecord // publish records by epoch

	lazyBuildMs []float64 // first bicc batch after a publish minus its repeat
	publishW    []int64   // per counted step: publish-path writes
	lazyW       []int64   // per counted step: query-triggered build writes
	rungs       map[string]int64
	build       map[string]asym.Cost // the main graph's oracle build costs
	caches      cacheCounts          // cache counters over the measured traffic
	connReads   int64                // adapter pass reads
	biccReads   int64
	failed      tally
	wall        time.Duration // time spent sending traffic: set-up and checks excluded
}

// replay runs the workload in-process. dataDir holds churn_fresh's store.
func replay(w workload, in *inputs, tr *tracer, dataDir string) (*replayer, error) {
	r := &replayer{w: w, in: in, tr: tr, records: map[int64]serve.RebuildRecord{}, rungs: map[string]int64{}}
	var persist serve.RegistryPersister
	if w.churn.durable {
		st, _, err := store.Open(dataDir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		defer st.Close()
		r.log = &tracedPersist{st: st, tr: tr}
		persist = r.log
	}
	reg := serve.NewRegistry(serve.RegistryConfig{
		Engine:  serve.Config{Omega: oracledOmega, Seed: oracledSeed},
		Pool:    serve.NewPool(0),
		Persist: persist,
		OnRebuild: func(_ string, rec serve.RebuildRecord) {
			r.mu.Lock()
			r.records[rec.Epoch] = rec
			r.mu.Unlock()
		},
	})
	defer reg.Close()
	// The boot graph takes the default slot, as in the daemon, so the
	// workload's graphs can be deleted.
	if _, err := r.create(reg, "boot", graph.FromEdges(2, [][2]int32{{0, 1}})); err != nil {
		return nil, err
	}
	if w.read != nil {
		// As in the HTTP run, the probe runs first, before the large graph
		// exists.
		pe, err := r.create(reg, "probe", in.churn.g)
		if err != nil {
			return nil, err
		}
		if err := r.steps(pe, false); err != nil {
			return nil, err
		}
		if err := reg.Delete("probe"); err != nil {
			return nil, err
		}
	}
	e, err := r.setup(reg)
	if err != nil {
		return nil, err
	}
	r.build = e.Stats().BuildCosts
	var traffic []batch
	if w.read != nil {
		traffic = r.reads(e)
	} else {
		if err := r.steps(e, true); err != nil {
			return nil, err
		}
		for _, st := range in.churn.steps[1 : 1+r.stepCount()] {
			traffic = append(traffic, st.conn, st.bicc)
		}
	}
	r.adapters(e, traffic)
	return r, nil
}

// setup parses and builds the workload graph layer by layer, then creates
// it through the registry as POST /graphs does.
func (r *replayer) setup(reg *serve.Registry) (*serve.Engine, error) {
	tr := r.tr
	tr.setPhase("setup")
	req := tr.newReq()
	root := tr.begin("setup", 0, req)
	sp := tr.begin("graphio.read", root.id, req)
	g, err := graphio.Read(strings.NewReader(r.in.graphio))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	m := asym.NewMeter(oracledOmega)
	ctx := parallel.NewCtx(m, asym.NewSymTracker(0))
	sp = tr.begin("conn.build", root.id, req)
	conn.BuildOracle(ctx, graph.View{G: g, M: m}, 0, oracledSeed)
	tr.end(sp)
	sp = tr.begin("bicc.build", root.id, req)
	bicc.BuildOracle(ctx, graph.View{G: g, M: m}, nil, 0, oracledSeed)
	tr.end(sp)
	sp = tr.begin("registry.create", root.id, req)
	_, err = reg.Create(serve.GraphSpec{Name: "main", Graphio: r.in.graphio, Wait: true})
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	return reg.Get("main")
}

func (r *replayer) create(reg *serve.Registry, name string, g *graph.Graph) (*serve.Engine, error) {
	if _, err := reg.CreateFromGraph(name, g, serve.GraphSpec{Wait: true}); err != nil {
		return nil, err
	}
	return reg.Get(name)
}

// batch replays one /batch request: decode, DoWait, encode.
func (r *replayer) batch(e *serve.Engine, b *batch, parent, req int64) ([]serve.Result, time.Duration) {
	tr := r.tr
	rq := tr.begin("http.request", parent, req)
	sp := tr.begin("json.decode", rq.id, req)
	var br serve.BatchRequest
	err := json.Unmarshal(b.body, &br)
	tr.end(sp)
	if err != nil {
		panic(err) // the body was encoded by this program
	}
	do := tr.begin("engine.do", rq.id, req)
	t0 := time.Now()
	res, wait := e.DoWait(br.Queries)
	dur := time.Since(t0)
	tr.end(do)
	tr.add("engine.queue", do.id, req, do.start, do.start+int64(wait))
	sp = tr.begin("json.encode", rq.id, req)
	_, err = json.Marshal(serve.BatchResponse{Results: res, Count: len(res)})
	tr.end(sp)
	tr.endN(rq, len(b.qs))
	if err != nil {
		panic(err)
	}
	return res, dur
}

// reads replays the read phase: the warm-up pass, then one measured pass
// of each client's list, both clients concurrently. It returns the
// measured traffic.
func (r *replayer) reads(e *serve.Engine) []batch {
	ck := newChecker(r.in.g)
	var traffic []batch
	for _, phase := range []string{"warm", "read"} {
		r.tr.setPhase(phase)
		before := e.Stats()
		results := make([][][]serve.Result, len(r.in.clients))
		start := time.Now()
		var wg sync.WaitGroup
		for c, list := range r.in.clients {
			results[c] = make([][]serve.Result, len(list))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range list {
					results[c][i], _ = r.batch(e, &list[i], 0, r.tr.newReq())
				}
			}()
		}
		wg.Wait()
		r.wall += time.Since(start)
		if phase == "read" {
			r.caches.add(before, e.Stats())
		}
		for c, list := range r.in.clients {
			for i, b := range list {
				r.failed.add(checkResults(ck, b, results[c][i]))
			}
			if phase == "read" {
				traffic = append(traffic, list...)
			}
		}
	}
	return traffic
}

func checkResults(ck *checker, b batch, res []serve.Result) tally {
	return tally{attempted: int64(len(b.qs)), failed: int64(ck.checkAll(b, res))}
}

func (r *replayer) stepCount() int { return min(r.w.churn.minSteps, replaySteps) }

// steps replays the warm-up step and exactly stepCount churn steps on e:
// update with wait, conn batch and bicc batch, then (as a request of its
// own) a repeat of the bicc batch at the same epoch; the lazy build is
// the difference of the two bicc batches. countCaches adds the steps'
// cache counters, repeats excluded, to the measured traffic's.
func (r *replayer) steps(e *serve.Engine, countCaches bool) error {
	ci := r.in.churn
	prev := e.Stats()
	for s := 0; s <= r.stepCount(); s++ {
		r.tr.setPhase("steps")
		if s == 0 {
			r.tr.setPhase("warm-step")
		}
		st := &ci.steps[s]
		start := time.Now()
		req := r.tr.newReq()
		root := r.tr.begin("step", 0, req)
		up := r.tr.begin("engine.update", root.id, req)
		if r.log != nil {
			r.log.setParent(up.id, req)
		}
		us, err := e.Update(serve.Update{Add: st.add, Remove: st.remove}, true)
		r.tr.end(up)
		if err != nil {
			return fmt.Errorf("replay step %d: %w", s, err)
		}
		connRes, _ := r.batch(e, &st.conn, root.id, req)
		biccRes, first := r.batch(e, &st.bicc, root.id, req)
		r.tr.end(root)
		cur := e.Stats()
		_, repeat := r.batch(e, &st.bicc, 0, r.tr.newReq())
		r.wall += time.Since(start)

		if s > 0 {
			if countCaches {
				r.caches.add(prev, cur)
			}
			r.lazyBuildMs = append(r.lazyBuildMs, float64((first-repeat).Nanoseconds())/1e6)
			r.mu.Lock()
			rec, ok := r.records[us.Epoch]
			r.mu.Unlock()
			if !ok {
				return fmt.Errorf("replay step %d: no publish record for epoch %d", s, us.Epoch)
			}
			w := rec.GraphCost.Writes
			for _, c := range rec.OracleCosts {
				w += c.Writes
			}
			for o, strategy := range rec.Strategies {
				r.rungs[o+"."+strategy]++
			}
			r.publishW = append(r.publishW, w)
			var lw int64
			if cur.LazyRebuilds > prev.LazyRebuilds {
				lw = cur.BuildCosts["bicc"].Writes
			}
			r.lazyW = append(r.lazyW, lw)
		}
		prev = e.Stats()
		ck := newChecker(ci.graphAt(s))
		r.failed.add(checkResults(ck, st.conn, connRes))
		r.failed.add(checkResults(ck, st.bicc, biccRes))
	}
	return nil
}

// cacheCounts are the engine's cache counters: result-cache hits and
// misses, batch-dedup answers, cluster-cache hits and misses.
type cacheCounts struct{ rcHits, rcMisses, dedup, ccHits, ccMisses int64 }

// add adds the counters' growth from a to b.
func (c *cacheCounts) add(a, b serve.Stats) {
	c.rcHits += b.ResultCache.Hits - a.ResultCache.Hits
	c.rcMisses += b.ResultCache.Misses - a.ResultCache.Misses
	c.dedup += b.ResultCache.BatchDedup - a.ResultCache.BatchDedup
	c.ccHits += b.ClusterCache.Hits - a.ClusterCache.Hits
	c.ccMisses += b.ClusterCache.Misses - a.ClusterCache.Misses
}

// adapters answers a sample of the measured traffic directly on the
// serving oracles' adapters, one span per AnswerFast call.
func (r *replayer) adapters(e *serve.Engine, traffic []batch) {
	tr := r.tr
	tr.setPhase("adapter")
	start := time.Now()
	defer func() { r.wall += time.Since(start) }()
	req := tr.newReq()
	root := tr.begin("adapter.pass", 0, req)
	ca := oracle.ConnAdapter{O: e.Conn()}
	ba := oracle.BiccAdapter{O: e.Bicc(), Cache: bicc.NewClusterCache(0)}
	csc, bsc := ca.NewScratch(), ba.NewScratch()
	cm, bm := asym.NewMeter(oracledOmega), asym.NewMeter(oracledOmega)
	n := 0
	for _, b := range traffic {
		for _, q := range b.qs {
			if n == adapterSample {
				break
			}
			n++
			oq := oracle.Query{Kind: q.Kind, U: q.U, V: q.V}
			if q.Kind == serve.KindConnected || q.Kind == serve.KindComponent {
				sp := tr.begin("conn.answer", root.id, req)
				_, _ = ca.AnswerFast(cm, nil, oq, csc) // answers are checked on the engine path
				tr.end(sp)
			} else if ba.O != nil {
				sp := tr.begin("bicc.answer", root.id, req)
				_, _ = ba.AnswerFast(bm, nil, oq, bsc)
				tr.end(sp)
			}
		}
	}
	tr.end(root)
	r.connReads, r.biccReads = cm.Snapshot().Reads, bm.Snapshot().Reads
}

// tracedPersist wraps the durable store as the registry's persister and
// records a span around each durable-log call. The parent is the
// Engine.Update span of the step in flight (EpochPublished runs on the
// engine's rebuild goroutine, so the parent is handed over explicitly).
type tracedPersist struct {
	st *store.Store
	tr *tracer

	mu          sync.Mutex
	parent, req int64
}

func (p *tracedPersist) setParent(id, req int64) {
	p.mu.Lock()
	p.parent, p.req = id, req
	p.mu.Unlock()
}

func (p *tracedPersist) current() (int64, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parent, p.req
}

func (p *tracedPersist) CreateGraph(name string, spec []byte) (serve.GraphPersister, error) {
	gl, err := p.st.CreateGraph(name, spec)
	if err != nil {
		return nil, err
	}
	return &tracedLog{GraphLog: gl, p: p}, nil
}

func (p *tracedPersist) DeleteGraph(name string) error { return p.st.DeleteGraph(name) }

// tracedLog is a store.GraphLog whose update and commit calls are spanned.
type tracedLog struct {
	*store.GraphLog
	p *tracedPersist
}

func (l *tracedLog) LogUpdate(seq int64, add, remove [][2]int32) error {
	parent, req := l.p.current()
	sp := l.p.tr.begin("store.log_update", parent, req)
	defer l.p.tr.end(sp)
	return l.GraphLog.LogUpdate(seq, add, remove)
}

func (l *tracedLog) EpochPublished(epoch, seq int64, g *graph.Graph, dyn func() (map[int32]int32, [][2]int32, int)) {
	parent, req := l.p.current()
	sp := l.p.tr.begin("store.epoch_published", parent, req)
	defer l.p.tr.end(sp)
	l.GraphLog.EpochPublished(epoch, seq, g, dyn)
}
