package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// readTop is the depth every read asks for.
const readTop = 5

// lookupPath is the path and query of a GET lookup of subject by key
// ("q" or "ad") on endpoint, at depth readTop.
func lookupPath(endpoint, key, subject string) string {
	return endpoint + "?" + url.Values{key: {subject}, "top": {strconv.Itoa(readTop)}}.Encode()
}

// request returns the method, path-and-query and body of op.
func (op *readOp) request() (string, string, []byte) {
	switch op.kind {
	case opSimilarQ:
		return http.MethodGet, lookupPath("/similar", "q", op.subject), nil
	case opSimilarAd:
		return http.MethodGet, lookupPath("/similar", "ad", op.subject), nil
	case opBatch:
		body, _ := json.Marshal(struct {
			Queries []string `json:"queries"`
			Top     int      `json:"top"`
		}{op.batch, readTop}) // strings and an int always marshal
		return http.MethodPost, "/batch", body
	default:
		return http.MethodGet, lookupPath("/rewrite", "q", op.subject), nil
	}
}

// correct reports whether status and body are the right answer to op: a
// 200 for a subject in the graph, a 404 for one that is not, and for a
// batch, a 404 item exactly where the query is not in the graph.
func (op *readOp) correct(status int, body []byte) bool {
	if op.kind != opBatch {
		if op.want404 {
			return status == http.StatusNotFound
		}
		return status == http.StatusOK
	}
	if status != http.StatusOK {
		return false
	}
	var resp struct {
		Results []struct {
			Status int `json:"status"`
		} `json:"results"`
	}
	if json.Unmarshal(body, &resp) != nil || len(resp.Results) != len(op.batch) {
		return false
	}
	for i, it := range resp.Results {
		if op.batchIn[i] != (it.Status == 0) || (!op.batchIn[i] && it.Status != http.StatusNotFound) {
			return false
		}
	}
	return true
}

// readStats is what a closed loop measured.
type readStats struct {
	lat       [numOpKinds][]float64 // µs, correct answers only
	attempted [numOpKinds]int
	failed    [numOpKinds]int
	perSecond []int // correct answers completed in each second of the loop
	elapsed   time.Duration
}

// secondRate is the median over the loop's whole seconds of the reads
// completed in each: a closed loop's rate, robust to a burst of outside
// load in one second.
func (s *readStats) secondRate() float64 {
	full := int(s.elapsed / time.Second)
	if full < 1 || len(s.perSecond) < full {
		return rate(s.completed(), s.elapsed)
	}
	xs := make([]float64, full)
	for i := range xs {
		xs[i] = float64(s.perSecond[i])
	}
	return median(xs)
}

func (s *readStats) completed() int {
	n := 0
	for k := range s.attempted {
		n += s.attempted[k] - s.failed[k]
	}
	return n
}

func (s *readStats) merge(o *readStats) {
	for k := range s.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
		s.attempted[k] += o.attempted[k]
		s.failed[k] += o.failed[k]
	}
	for i, n := range o.perSecond {
		if i >= len(s.perSecond) {
			s.perSecond = append(s.perSecond, 0)
		}
		s.perSecond[i] += n
	}
}

// record adds one phase per request kind to rep, and a check that
// every timed read got the right answer: a wrong status, an error or a
// timeout fails the run, not only its count.
func (s *readStats) record(rep *report, prefix string) {
	failed := 0
	for _, p := range s.phases(prefix) {
		rep.addPhase(p)
		failed += p.Failed
	}
	rep.check(prefix+"*: every timed read answered correctly", failed == 0,
		fmt.Sprintf("%d of %d reads failed", failed, s.completed()+failed))
}

// phases reports one phase per request kind.
func (s *readStats) phases(prefix string) []phase {
	var out []phase
	for k := opKind(0); k < numOpKinds; k++ {
		if s.attempted[k] > 0 {
			out = append(out, phase{Name: prefix + k.String(), Attempted: s.attempted[k],
				Succeeded: s.attempted[k] - s.failed[k], Failed: s.failed[k]})
		}
	}
	return out
}

// closedLoop runs conns connections against base for d, each sending
// its next read from ops (skipping kinds keep rejects) as soon as the
// previous one answered. Connection i starts at its own offset in ops.
// With a tracer, each read is a root span "client.<kind>" whose id
// travels in spanHeader.
func closedLoop(base string, ops []readOp, conns int, d time.Duration, keep func(opKind) bool, tr *tracer) *readStats {
	total := &readStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			st := &readStats{}
			for i := c * len(ops) / conns; time.Now().Before(deadline); i = (i + 1) % len(ops) {
				op := &ops[i]
				if keep != nil && !keep(op.kind) {
					continue
				}
				method, path, body := op.request()
				var id uint64
				hdr := ""
				if tr != nil {
					id = tr.id()
					hdr = fmt.Sprintf("%d/%d", id, id)
				}
				t0 := time.Now()
				status, resp, err := fetch(cl, method, base+path, body, hdr)
				lat := time.Since(t0)
				if tr != nil {
					tr.add(id, 0, id, "client."+op.kind.String(), t0)
				}
				st.attempted[op.kind]++
				if err != nil || !op.correct(status, resp) {
					st.failed[op.kind]++
					continue
				}
				st.lat[op.kind] = append(st.lat[op.kind], float64(lat)/float64(time.Microsecond))
				sec := int(time.Since(start) / time.Second)
				for len(st.perSecond) <= sec {
					st.perSecond = append(st.perSecond, 0)
				}
				st.perSecond[sec]++
			}
			mu.Lock()
			total.merge(st)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total
}
