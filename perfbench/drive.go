package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/pkg/costmodel/server"
	"repro/pkg/costmodel/validate"
)

// rig is one set-up server and the client side that drives it.
type rig struct {
	env *env
	srv *server.Server
	// twin receives every request srv does, in-process and in the same
	// per-client order, so its caches mirror srv's; the traced run times
	// the server's entry points on it.
	twin   *server.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
}

// startRig serves a fresh server on a loopback listener.
func startRig(cfg server.Config, e *env, clients int, traced bool) (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{env: e, srv: server.New(cfg), served: make(chan struct{}), url: "http://" + ln.Addr().String()}
	if traced {
		r.twin = server.New(cfg)
	}
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go func() {
		defer close(r.served)
		_ = r.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	r.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	return r, nil
}

// close stops the server and waits until it has stopped serving.
func (r *rig) close() {
	if r.hs == nil {
		return
	}
	r.client.CloseIdleConnections()
	_ = r.hs.Close()
	<-r.served
}

// opKind says which request an operation sends.
type opKind uint8

const (
	kindPlan opKind = iota
	kindEval
	kindBatch
	kindValidate
)

// servedPaths lists the plan served paths; wire operations store the
// index.
var servedPaths = []string{"", server.PlanServedCache, server.PlanServedRevalidated, server.PlanServedSearch}

func servedIndex(path string) uint8 {
	for i, p := range servedPaths {
		if p == path {
			return uint8(i)
		}
	}
	return 0
}

// wireOp is an operation ready to send. It holds no pointers — its
// request body and expectations are ranges of the list's flat arrays —
// so a list of a hundred thousand operations adds nothing for the
// garbage collector to scan while the server under test runs.
type wireOp struct {
	client         int32
	index          int32 // position in the generated list
	kind           opKind
	served         uint8 // declared served path (plans)
	bodyLo, bodyHi int32
	expLo, expHi   int32 // expected cached flags and totals (evaluations)
	want, golden   int32 // indexes into answers; -1 for none
}

// opList is a generated list in sendable form.
type opList struct {
	ops     []wireOp
	bodies  []byte
	cached  []bool
	totals  []float64
	answers []Answer
	// typed keeps the generated operations for the traced run's
	// re-enactment; nil otherwise.
	typed       []Op
	keepTyped   bool
	answerIndex map[Answer]int32
}

func newOpList(keepTyped bool) *opList {
	return &opList{keepTyped: keepTyped, answerIndex: map[Answer]int32{}}
}

// add encodes op onto the list. The generator calls it as it goes, so
// a long list never exists in both forms at once.
func (l *opList) add(op Op) {
	w := wireOp{client: int32(op.Client), index: int32(len(l.ops)), served: servedIndex(op.Served),
		want: l.answerRef(op.Want), golden: l.answerRef(op.Golden)}
	var req any
	switch {
	case op.Plan != nil:
		w.kind, req = kindPlan, op.Plan
	case op.Eval != nil:
		w.kind, req = kindEval, op.Eval
	case op.Batch != nil:
		w.kind, req = kindBatch, op.Batch
	default:
		w.kind = kindValidate
	}
	if req != nil {
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // the request types hold only strings, numbers and slices of them
		}
		w.bodyLo = int32(len(l.bodies))
		l.bodies = append(l.bodies, body...)
		w.bodyHi = int32(len(l.bodies))
	}
	w.expLo = int32(len(l.cached))
	l.cached = append(l.cached, op.Cached...)
	l.totals = append(l.totals, op.TotalNS...)
	w.expHi = int32(len(l.cached))
	l.ops = append(l.ops, w)
	if l.keepTyped {
		l.typed = append(l.typed, op)
	}
}

// answerRef interns a plan answer; -1 stands for none.
func (l *opList) answerRef(a *Answer) int32 {
	if a == nil {
		return -1
	}
	i, ok := l.answerIndex[*a]
	if !ok {
		i = int32(len(l.answers))
		l.answerIndex[*a] = i
		l.answers = append(l.answers, *a)
	}
	return i
}

func (l *opList) answer(i int32) *Answer {
	if i < 0 {
		return nil
	}
	return &l.answers[i]
}

// outcome is what one executed operation reports.
type outcome struct {
	latency  time.Duration
	served   uint8
	diverged bool
	err      error
}

// post sends one request and reads the whole response.
func (r *rig) post(path string, body []byte) (int, []byte, error) {
	resp, err := r.client.Post(r.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// do executes one operation, timing it from the request's start until
// its response is read (or the grid is returned), then checks it.
func (r *rig) do(l *opList, op wireOp) outcome {
	if op.kind == kindValidate {
		start := time.Now()
		rep, err := validate.Run(context.Background(), validate.Options{Profile: "origin2000", Backend: validate.BackendAnalytical})
		o := outcome{latency: time.Since(start), err: err}
		if err == nil {
			o.err = r.env.checkValidate(rep)
		}
		return o
	}
	path := "/v1/evaluate"
	if op.kind == kindPlan {
		path = "/v1/plan"
	}
	start := time.Now()
	status, raw, err := r.post(path, l.bodies[op.bodyLo:op.bodyHi])
	o := outcome{latency: time.Since(start), err: err}
	if err != nil {
		return o
	}
	if status != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(raw))
		return o
	}
	cached, totals := l.cached[op.expLo:op.expHi], l.totals[op.expLo:op.expHi]
	switch op.kind {
	case kindPlan:
		var res server.PlanResponse
		if o.err = json.Unmarshal(raw, &res); o.err == nil {
			o.served = servedIndex(res.Served)
			o.diverged, o.err = checkPlan(&res, servedPaths[op.served], l.answer(op.want), l.answer(op.golden))
		}
	case kindEval:
		var res server.EvalResult
		if o.err = json.Unmarshal(raw, &res); o.err == nil {
			o.err = checkEval([]*server.EvalResult{&res}, cached, totals)
		}
	case kindBatch:
		var res server.BatchResponse
		if o.err = json.Unmarshal(raw, &res); o.err == nil {
			o.err = checkEval(res.Results, cached, totals)
		}
	}
	return o
}

// clientResult is what one client's closed loop records. Only the first
// error is kept, so the record stays pointer-free in size.
type clientResult struct {
	latencies []time.Duration
	// ends holds when each operation's response was read, as offsets
	// from the start of the closed loop.
	ends     []time.Duration
	paths    []uint8 // served path per operation, index-aligned with latencies
	diverged int
	failed   int
	firstErr error
}

// runClosedLoop runs every client's operations on its own goroutine;
// each client sends its next operation only when the previous one has
// been answered. each runs on the client's goroutine. It returns when
// the loop started and how long it took.
func runClosedLoop(l *opList, clients int, each func(client int, op wireOp) outcome) (time.Time, time.Duration, []clientResult) {
	lists := make([][]wireOp, clients)
	for _, op := range l.ops {
		lists[op.client] = append(lists[op.client], op)
	}
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c, list := range lists {
		res := &results[c]
		res.latencies = make([]time.Duration, 0, len(list))
		res.ends = make([]time.Duration, 0, len(list))
		res.paths = make([]uint8, 0, len(list))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range list {
				o := each(c, op)
				res.ends = append(res.ends, time.Since(start))
				res.latencies = append(res.latencies, o.latency)
				res.paths = append(res.paths, o.served)
				if o.diverged {
					res.diverged++
				}
				if o.err != nil {
					if res.failed == 0 {
						res.firstErr = o.err
					}
					res.failed++
				}
			}
		}()
	}
	wg.Wait()
	return start, time.Since(start), results
}
