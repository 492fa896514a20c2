package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"pitchfork/internal/serve"
)

// The service workload drives spectred's handler (serve.New) in-process
// over a loopback httptest server, in a closed loop with serviceClients
// clients. Requests follow a Zipf popularity over corpus program ×
// {analyze concrete, analyze symbolic, repair}; CTL programs travel as
// source and gallery figures in wire form. The memory tier holds fewer
// verdicts than there are keys, so evictions keep misses recurring, and
// the disk tier is off.

const (
	serviceClients  = 2   // nproc of the reference machine
	serviceRequests = 800 // about how many requests one pass replays
	serviceMemTier  = 48  // verdicts the memory tier holds
	serviceZipfS    = 1.1 // skew of the key popularity
	// serviceSampleEvery is how many requests the clients send between
	// two speed samples.
	serviceSampleEvery = 8
)

// serviceExcluded are keys whose request cannot succeed at the shipped
// defaults: their repair verification exhausts the state budget, which
// the server reports as an error. The workload leaves them out so that
// no operation fails.
var serviceExcluded = map[string]bool{"specv1_02/repair": true}

type serviceOp uint8

const (
	opConcrete serviceOp = iota
	opSymbolic
	opRepair
)

func (o serviceOp) String() string { return [...]string{"analyze", "analyze-symbolic", "repair"}[o] }

type serviceKey struct {
	name string // program/op
	op   serviceOp
	path string
	body []byte
	want label
}

type serviceRunner struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	keys   []serviceKey
	list   []int // the request multiset: indexes into keys
	rng    *rand.Rand
}

func setupService(seed uint64) (runner, error) {
	progs, err := loadCorpus()
	if err != nil {
		return nil, err
	}
	var keys []serviceKey
	for _, p := range progs {
		for _, op := range []serviceOp{opConcrete, opSymbolic, opRepair} {
			name := p.name + "/" + op.String()
			if serviceExcluded[name] {
				continue
			}
			req := serve.AnalyzeRequest{Source: p.source, Program: p.wire}
			want, path := p.label, "/v1/analyze"
			switch op {
			case opSymbolic:
				req.Config = json.RawMessage(`{"symbolic":true}`)
				if p.source != "" {
					req.SymbolicGlobals = []string{"x"}
				}
			case opRepair:
				path = "/v1/repair"
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			keys = append(keys, serviceKey{name: name, op: op, path: path, body: body, want: want})
		}
	}
	// The request list holds each key as often as its Zipf weight says,
	// at least once, with popularity ranks over a fixed shuffle of the
	// keys. Every seed and every pass therefore send the same multiset of
	// requests and stress the same hot set; the seed draws only the order
	// of each pass, which decides where the evictions fall.
	fixed := rand.New(rand.NewPCG(0x706f70756c6172, 0x6974790a))
	rank := fixed.Perm(len(keys))
	weights := make([]float64, len(keys))
	var total float64
	for r := range keys {
		weights[r] = math.Pow(float64(r+1), -serviceZipfS)
		total += weights[r]
	}
	var list []int
	for r, k := range rank {
		n := max(1, int(math.Round(serviceRequests*weights[r]/total)))
		for ; n > 0; n-- {
			list = append(list, k)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x73657276696365))

	srv, err := serve.New(serve.Config{Workers: serviceClients, MemEntries: serviceMemTier})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}
	return &serviceRunner{srv: srv, ts: ts, client: client, keys: keys, list: list, rng: rng}, nil
}

func (r *serviceRunner) close() {
	r.client.CloseIdleConnections()
	r.ts.Close()
	r.srv.Drain()
}

// outcome is what one response said.
type outcome struct {
	latency                time.Duration
	failed, hit, coalesced bool
	decided, correct       bool
}

func (r *serviceRunner) warmUp() error {
	_, err := r.pass(nil, nil)
	return err
}

func (r *serviceRunner) pass(tr *tracer, sm *speedMeter) (*passResult, error) {
	r.rng.Shuffle(len(r.list), func(i, j int) { r.list[i], r.list[j] = r.list[j], r.list[i] })
	before := r.srv.Stats()
	outs := make([]outcome, len(r.list))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.list) {
					return
				}
				if i%serviceSampleEvery == 0 {
					sm.sample()
				}
				outs[i] = r.request(r.keys[r.list[i]], tr, i)
			}
		}()
	}
	wg.Wait()
	after := r.srv.Stats()

	res := &passResult{serve: &serveCounters{
		analyses:   after.Analyses - before.Analyses,
		coalescedN: after.Coalesced - before.Coalesced,
		rejected:   after.Rejected - before.Rejected,
	}}
	for _, o := range outs {
		res.attempted++
		if o.failed {
			res.failed++
			continue
		}
		res.latencies = append(res.latencies, o.latency)
		switch {
		case o.coalesced:
			res.serve.coalesced = append(res.serve.coalesced, o.latency)
		case o.hit:
			res.serve.hits = append(res.serve.hits, o.latency)
		default:
			res.serve.misses = append(res.serve.misses, o.latency)
		}
		res.verdicts++
		if o.decided {
			res.decided++
			if !o.correct {
				res.wrong++
			}
		}
	}
	return res, nil
}

// request sends one key and checks the verdict against the oracle.
func (r *serviceRunner) request(k serviceKey, tr *tracer, req int) outcome {
	sp := tr.start("serve.request", -1, req)
	t0 := time.Now()
	resp, err := r.client.Post(r.ts.URL+k.path, "application/json", bytes.NewReader(k.body))
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o := outcome{latency: time.Since(t0)}
	if err != nil || resp.StatusCode != http.StatusOK {
		tr.end(sp, "serve.error")
		o.failed = true
		fmt.Printf("service: %s: status %v err %v: %.200s\n", k.name, statusOf(resp), err, raw)
		return o
	}
	if k.op == opRepair {
		var env serve.RepairResponse
		if err := json.Unmarshal(raw, &env); err != nil || env.Result == nil {
			o.failed = true
			tr.end(sp, "serve.error")
			return o
		}
		o.hit, o.coalesced = env.CacheHit, env.Coalesced
		out := env.Result.Outcome
		o.decided = out != "failed" && out != "exhausted"
		o.correct = out == k.want.wantRepair()
	} else {
		var env serve.AnalyzeResponse
		if err := json.Unmarshal(raw, &env); err != nil || env.Report == nil {
			o.failed = true
			tr.end(sp, "serve.error")
			return o
		}
		rep := env.Report
		o.hit, o.coalesced = rep.CacheHit, rep.Coalesced
		o.correct = rep.SecretFree == k.want.wantSecretFree()
		flaggedClean := !rep.SecretFree && k.want.wantSecretFree()
		o.decided = !(rep.Truncated || rep.Interrupted) || flaggedClean
	}
	if !o.correct && o.decided {
		fmt.Printf("service: WRONG %s\n", k.name)
	}
	name := "serve.miss"
	switch {
	case o.coalesced:
		name = "serve.coalesced"
	case o.hit:
		name = "serve.hit"
	}
	tr.end(sp, name)
	return o
}

func statusOf(resp *http.Response) any {
	if resp == nil {
		return "none"
	}
	return resp.StatusCode
}
