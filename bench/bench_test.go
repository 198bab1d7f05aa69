package main

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"spinal"
	"spinal/daemon"
)

// TestWireAgainstDaemon runs the benchmark's own client, which speaks
// spinald's grammar from its specification, against an in-process
// daemon, so a change to the grammar breaks this test. It also holds the
// core and link replays to the daemon's symbol counts, which catches a
// drift in how the daemon seeds its per-flow channels.
func TestWireAgainstDaemon(t *testing.T) {
	p := spinal.DefaultParams()
	p.B = 8
	const seed = 7
	d, err := daemon.New(daemon.Config{Shards: 2, Params: p, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	c, err := dialClient(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	deadline := time.Now().Add(30 * time.Second)

	reqs := phaseReqs(seed, seqW1, 0, 8, 48)
	res, err := c.run(context.Background(), reqs, 3, false, deadline, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.ok != 8 || res.failed != 0 || res.corrupt != 0 || len(res.lat) != 8 {
		t.Fatalf("flows: ok %d failed %d corrupt %d latencies %d, want 8 verified", res.ok, res.failed, res.corrupt, len(res.lat))
	}
	if res.bytes != 8*48 || res.symbols <= 0 {
		t.Fatalf("accounting: %d bytes, %d symbols", res.bytes, res.symbols)
	}

	bare, err := c.run(context.Background(), phaseReqs(seed, seqBare, 0, 1, 0), 1, true, deadline, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if bare.ok != 1 || bare.recs[0].status != daemon.StatusRejected {
		t.Fatalf("bare probe: ok %d status %d, want StatusRejected", bare.ok, bare.recs[0].status)
	}

	core := newCoreReplay(p, nil)
	var flows []linkFlow
	for _, r := range reqs {
		if !core.flow("", r.payload, flowSeed(seed, r.conn, r.seq)) {
			t.Fatalf("core replay of conn %d did not decode", r.conn)
		}
		flows = append(flows, linkFlow{payload: r.payload, chSeed: flowSeed(seed, r.conn, r.seq)})
	}
	ls, err := linkReplay(context.Background(), p, seed, flows, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ls.delivered != len(flows) {
		t.Fatalf("link replay delivered %d of %d flows intact", ls.delivered, len(flows))
	}
	for i, rec := range res.recs {
		if core.st.flowSyms[i] != int(rec.symbols) || ls.flowSyms[i] != int(rec.symbols) {
			t.Errorf("flow %d: daemon spent %d symbols, core replay %d, link replay %d",
				i, rec.symbols, core.st.flowSyms[i], ls.flowSyms[i])
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, perMille int }{
		{10000, 990}, {1000, 990}, {999, 950}, {200, 950}, {100, 900}, {99, 750}, {40, 750},
		{39, 0}, {16, 0}, {0, 0},
	} {
		pm, ok := tailPercentile(c.n)
		if pm != c.perMille || ok != (c.perMille != 0) {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d", c.n, pm, ok, c.perMille)
		}
		if ok && c.n*(1000-pm)/1000 < 10 {
			t.Errorf("n=%d: p%d leaves fewer than 10 samples beyond it", c.n, pm)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.n != 100 || s.tailName() != "p90" || s.p50 != 50.5 || math.Abs(s.tail-90.1) > 1e-9 {
		t.Errorf("summarize(1..100) = %+v (%s)", s, s.tailName())
	}
	if s.tailNote() != "p90 90" {
		t.Errorf("tailNote(1..100) = %q", s.tailNote())
	}
	if s := summarize(xs[:16]); s.tailPM != 0 || s.tailName() != "none" || s.n != 16 {
		t.Errorf("summarize of 16 samples reported a tail: %+v", s)
	}
}

func TestRegressed(t *testing.T) {
	for _, c := range []struct {
		better        string
		bound         float64
		parent, child float64
		want          bool
	}{
		{"lower", 0.1, 100, 110, false},
		{"lower", 0.1, 100, 110.5, true},
		{"lower", 0.1, 100, 50, false},
		{"higher", 0.1, 100, 90, false},
		{"higher", 0.1, 100, 89.5, true},
		{"higher", 0.1, 100, 300, false},
		{"higher", 0, 1, 1, false},
		{"higher", 0, 1, 0.9999, true},
	} {
		if got := regressed(c.better, c.bound, c.parent, c.child); got != c.want {
			t.Errorf("regressed(%s, %g, %g → %g) = %v, want %v", c.better, c.bound, c.parent, c.child, got, c.want)
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %g, want 1", got)
	}
}

// TestBenchmarkJSON checks the declaration against the program: every
// workload defined, every metric measured, each declared once.
func TestBenchmarkJSON(t *testing.T) {
	cfg, err := loadConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range append(slices.Clone(cfg.EndToEnd), cfg.PerLayer...) {
		names = append(names, s.Name)
	}
	slices.Sort(names)
	want := slices.Clone(measuredMetrics)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Fatalf("BENCHMARK.json declares %v,\nthe program measures %v", names, want)
	}
	for _, s := range cfg.EndToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", s.Name, s.Bound)
		}
	}
}

func TestCodeBlocks(t *testing.T) {
	for _, c := range []struct{ size, blocks, lastBits int }{
		{0, 1, 16}, {16, 1, 144}, {64, 1, 528}, {126, 1, 1024}, {127, 2, 24}, {4096, 33, 528},
	} {
		b := codeBlocks(make([]byte, c.size))
		if len(b) != c.blocks || len(b[len(b)-1])*8 != c.lastBits {
			t.Errorf("%d bytes: %d blocks, last %d bits; want %d, %d", c.size, len(b), len(b[len(b)-1])*8, c.blocks, c.lastBits)
		}
	}
	if crc16([]byte("123456789")) != 0x29B1 {
		t.Error("crc16 is not CCITT-FALSE")
	}
}
