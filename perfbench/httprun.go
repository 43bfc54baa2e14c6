package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// tally counts operations (queries, updates, graph creations) and the ones
// that failed: a non-2xx reply or a wrong answer.
type tally struct{ attempted, failed int64 }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

func (d *daemon) stats(path string) (serve.StatsJSON, error) {
	var s serve.StatsJSON
	st, body, err := d.do("GET", path+"/stats", nil)
	if err != nil {
		return s, err
	}
	if st != http.StatusOK {
		return s, fmt.Errorf("GET %s/stats: status %d", path, st)
	}
	return s, json.Unmarshal(body, &s)
}

// queryCost sums the per-kind query counters of a /stats document.
func queryCost(s serve.StatsJSON) (count, reads, writes int64) {
	for _, k := range s.Queries {
		count += k.Count
		reads += k.Cost.Reads
		writes += k.Cost.Writes
	}
	return
}

func specBody(name, graphioText string) []byte {
	return mustJSON(serve.GraphSpec{Name: name, Graphio: graphioText, Wait: true})
}

// setupPhase creates the workload graph `repeats` times through POST
// /graphs with wait, deleting all but the last, and returns the median
// creation time, the kept graph's URL prefix and its total build writes.
func setupPhase(d *daemon, name, text string, repeats int, t *tally) (setupS float64, path string, writes int64, err error) {
	bodies := make([][]byte, repeats)
	for i := range bodies {
		bodies[i] = specBody(fmt.Sprintf("%s%d", name, i), text)
	}
	times := make([]float64, repeats)
	for i, body := range bodies {
		gname := fmt.Sprintf("%s%d", name, i)
		t0 := time.Now()
		st, reply, err := d.do("POST", "/graphs", body)
		times[i] = time.Since(t0).Seconds()
		t.attempted++
		if err != nil || st != http.StatusCreated {
			t.failed++
			return 0, "", 0, fmt.Errorf("create graph %s: status %d: %v %s", gname, st, err, reply)
		}
		path = "/graphs/" + gname
		if i < repeats-1 {
			if st, reply, err := d.do("DELETE", path, nil); err != nil || st != http.StatusOK {
				return 0, "", 0, fmt.Errorf("delete graph %s: status %d: %v %s", gname, st, err, reply)
			}
		}
	}
	s, err := d.stats(path)
	if err != nil {
		return 0, "", 0, err
	}
	for _, c := range s.BuildCosts {
		writes += c.Writes
	}
	return median(times), path, writes, nil
}

// slice is one second of the read window.
type slice struct {
	batchMs []float64
	queries int64
}

// readOut is what a read phase measures. The window is cut into
// one-second slices, so that a burst of interference from outside the
// benchmark lasting a few seconds moves the median slice little.
type readOut struct {
	slices            []slice
	queries           int64
	seconds           float64
	batches           int
	readsPerQuery     float64
	writesPerQuery    float64
	cpuUsPerQuery     float64
	rssMB             float64
	verifiedReplies   int64
	mismatchedReplies int64
}

// mismatch is a window reply that differs from its batch's verified
// warm-up reply; it is decoded and checked after the window.
type mismatch struct {
	b *batch
	r response
}

// readPhase sends every client's list once (the untimed warm-up, whose
// /stats delta gives the exact per-query asym counts of the window's
// repeating stream), checks those replies, then lets both clients cycle
// their lists closed-loop for `seconds`.
func readPhase(d *daemon, path string, clients [][]batch, seconds float64, ck *checker, t *tally) (readOut, error) {
	var out readOut
	before, err := d.stats(path)
	if err != nil {
		return out, err
	}
	warm := make([][]response, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		warm[c] = make([]response, len(clients[c]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range clients[c] {
				st, body, err := d.do("POST", path+"/batch", clients[c][i].body)
				if err != nil {
					st = 0
				}
				warm[c][i] = response{status: st, body: body}
			}
		}()
	}
	wg.Wait()
	after, err := d.stats(path)
	if err != nil {
		return out, err
	}
	q0, r0, w0 := queryCost(before)
	q1, r1, w1 := queryCost(after)
	if q1 == q0 {
		return out, fmt.Errorf("warm-up answered no queries")
	}
	out.readsPerQuery = float64(r1-r0) / float64(q1-q0)
	out.writesPerQuery = float64(w1-w0) / float64(q1-q0)

	good := make([][][]byte, len(clients))
	for c := range clients {
		good[c] = make([][]byte, len(clients[c]))
		for i, r := range warm[c] {
			b := clients[c][i]
			t.attempted += int64(len(b.qs))
			if f := ck.checkBatch(b, r); f > 0 {
				t.failed += int64(f)
			} else {
				good[c][i] = r.body
			}
		}
	}

	type clientOut struct {
		lat       []float64
		done      []float64 // completion times, seconds into the window
		queries   int64
		mismatch  []mismatch
		identical int64
	}
	outs := make([]clientOut, len(clients))
	window := time.Duration(seconds * float64(time.Second))
	cpu0, err := d.cpuTicks()
	if err != nil {
		return out, err
	}
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			co := &outs[c]
			list := clients[c]
			for i := 0; time.Since(start) < window; i++ {
				b := &list[i%len(list)]
				t0 := time.Now()
				st, body, err := d.do("POST", path+"/batch", b.body)
				co.lat = append(co.lat, float64(time.Since(t0).Nanoseconds())/1e6)
				co.done = append(co.done, time.Since(start).Seconds())
				co.queries += int64(len(b.qs))
				if err == nil && st == http.StatusOK && bytes.Equal(body, good[c][i%len(list)]) {
					co.identical++
					continue
				}
				co.mismatch = append(co.mismatch, mismatch{b, response{status: st, body: body}})
			}
		}()
	}
	wg.Wait()
	out.seconds = time.Since(start).Seconds()
	cpu1, err := d.cpuTicks()
	if err != nil {
		return out, err
	}
	if out.rssMB, err = d.rssMB(); err != nil {
		return out, err
	}
	out.slices = make([]slice, max(1, int(seconds)))
	width := out.seconds / float64(len(out.slices))
	for c, co := range outs {
		for i, d := range co.done {
			sl := &out.slices[min(int(d/width), len(out.slices)-1)]
			sl.batchMs = append(sl.batchMs, co.lat[i])
			sl.queries += int64(len(clients[c][i%len(clients[c])].qs))
		}
		out.batches += len(co.lat)
		out.queries += co.queries
		out.verifiedReplies += co.identical
		for _, m := range co.mismatch {
			t.failed += int64(ck.checkBatch(*m.b, m.r))
		}
		out.mismatchedReplies += int64(len(co.mismatch))
	}
	t.attempted += out.queries
	out.cpuUsPerQuery = float64(cpu1-cpu0) * 1e6 / clockTick / float64(out.queries)
	return out, nil
}

// churnOut is what a churn phase measures. Latency samples cover every
// timed step; the exact counts cover the first minSteps timed steps.
type churnOut struct {
	updateMs, freshConnMs, freshBiccMs, connBatchMs []float64
	queries                                         int64
	seconds                                         float64 // in timed steps, /stats reads excluded
	writesPerUpdate                                 float64
	readsPerQuery, writesPerQuery                   float64
	cpuUsPerQuery                                   float64
	rssMB                                           float64
	steps                                           int
}

// stepReplies keeps one step's replies for checking after the window.
type stepReplies struct {
	update     response
	conn, bicc response
}

// churnPhase runs the warm-up step, then timed steps until at least
// minSteps ran and `seconds` passed (or the generated steps run out).
// Between steps, untimed, it reads /stats for the step's publish record
// and lazy bicc build.
func churnPhase(d *daemon, path string, ci *churnInputs, cs churnSpec, seconds float64, t *tally) (churnOut, error) {
	var out churnOut
	replies := make([]stepReplies, 0, len(ci.steps))
	prev, err := d.stats(path)
	if err != nil {
		return out, err
	}
	var base serve.StatsJSON
	var writes int64
	window := time.Duration(seconds * float64(time.Second))
	var start time.Time
	var cpu0 int64
	epoch := prev.Epoch
	for s := range ci.steps {
		timed := s > 0
		if s == 1 {
			base = prev
			if cpu0, err = d.cpuTicks(); err != nil {
				return out, err
			}
			start = time.Now()
		}
		if timed && s > cs.minSteps && time.Since(start) >= window {
			break
		}
		st := &ci.steps[s]
		var sr stepReplies
		t0 := time.Now()
		sr.update.status, sr.update.body, err = d.do("POST", path+"/update", st.update)
		t1 := time.Now()
		if err == nil {
			sr.conn.status, sr.conn.body, err = d.do("POST", path+"/batch", st.conn.body)
		}
		t2 := time.Now()
		if err == nil {
			sr.bicc.status, sr.bicc.body, err = d.do("POST", path+"/batch", st.bicc.body)
		}
		t3 := time.Now()
		if err != nil {
			return out, fmt.Errorf("churn step %d: %w", s, err)
		}
		replies = append(replies, sr)
		if timed {
			ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
			out.updateMs = append(out.updateMs, ms(t0, t1))
			out.freshConnMs = append(out.freshConnMs, ms(t0, t2))
			out.freshBiccMs = append(out.freshBiccMs, ms(t0, t3))
			out.connBatchMs = append(out.connBatchMs, ms(t1, t2))
			out.queries += int64(len(st.conn.qs) + len(st.bicc.qs))
			out.seconds += t3.Sub(t0).Seconds()
		}
		cur, err := d.stats(path)
		if err != nil {
			return out, err
		}
		epoch++
		if timed && s <= cs.minSteps {
			w, err := stepWrites(prev, cur, epoch)
			if err != nil {
				return out, fmt.Errorf("churn step %d: %w", s, err)
			}
			writes += w
			if s == cs.minSteps {
				q0, r0, w0 := queryCost(base)
				q1, r1, w1 := queryCost(cur)
				out.readsPerQuery = float64(r1-r0) / float64(q1-q0)
				out.writesPerQuery = float64(w1-w0) / float64(q1-q0)
			}
		}
		prev = cur
	}
	cpu1, err := d.cpuTicks()
	if err != nil {
		return out, err
	}
	if out.rssMB, err = d.rssMB(); err != nil {
		return out, err
	}
	out.steps = len(replies) - 1
	if out.steps < cs.minSteps {
		return out, fmt.Errorf("only %d churn steps ran, want %d", out.steps, cs.minSteps)
	}
	out.writesPerUpdate = float64(writes) / float64(cs.minSteps)
	out.cpuUsPerQuery = float64(cpu1-cpu0) * 1e6 / clockTick / float64(out.queries)

	for s, sr := range replies {
		t.add(checkStep(ci, s, sr, prev.Epoch-int64(len(replies)-1-s)))
	}
	return out, nil
}

// stepWrites is one step's publish writes (new CSR plus every oracle's
// publish-path work, from the epoch's rebuild record) plus the writes of
// the bicc build the step's queries triggered, if any.
func stepWrites(prev, cur serve.StatsJSON, epoch int64) (int64, error) {
	var w int64
	found := false
	for _, r := range cur.Rebuilds {
		if r.Epoch != epoch {
			continue
		}
		found = true
		w += r.GraphCost.Writes
		for _, c := range r.OracleCosts {
			w += c.Writes
		}
	}
	if !found {
		return 0, fmt.Errorf("no rebuild record for epoch %d", epoch)
	}
	if cur.LazyRebuilds > prev.LazyRebuilds {
		w += cur.BuildCosts["bicc"].Writes
	}
	return w, nil
}

// checkStep checks one step's replies against references of the step's
// graph; the update must have published exactly the expected epoch.
func checkStep(ci *churnInputs, s int, sr stepReplies, wantEpoch int64) tally {
	st := ci.steps[s]
	t := tally{attempted: 1 + int64(len(st.conn.qs)+len(st.bicc.qs))}
	var ur serve.UpdateResponse
	if sr.update.status != http.StatusOK || json.Unmarshal(sr.update.body, &ur) != nil ||
		!ur.Applied || ur.Epoch != wantEpoch {
		t.failed++
	}
	ck := newChecker(ci.graphAt(s))
	t.failed += int64(ck.checkBatch(st.conn, sr.conn) + ck.checkBatch(st.bicc, sr.bicc))
	return t
}
