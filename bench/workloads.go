package main

import "math/rand"

// workload is one traffic mix. Daemon workloads run spinald and drive it
// over UDP loopback in alternating closed-loop rounds (see runDaemon):
// a w1 chunk keeps one flow outstanding (unloaded latency), a sat chunk
// keeps satOut outstanding (saturated throughput). The fetch workload
// runs transport.Fetch in this process instead.
type workload struct {
	name string
	// Daemon workloads.
	beam     int // spinald -b
	size     int // payload bytes per flow
	w1Round  int // flows in one round's w1 chunk
	satRound int // flows in one round's sat chunk
	satOut   int // flows outstanding in a sat chunk
	// Flows a traced run replays through the core and link layers: the
	// first replayW1 w1 flows and the first replaySat sat flows.
	replayW1, replaySat int
	// checkReplay holds the replays to spinald's symbol counts.
	checkReplay bool

	// The fetch workload: fetches inputs of fetchBytes each, fetched
	// again on every pass.
	fetches, fetchBytes int
}

func (w workload) isFetch() bool { return w.fetches > 0 }

// workloads are the benchmark's traffic mixes; BENCHMARK.json lists the
// same names with the reason each exists. A round takes about half a
// second, so a run's w1 and sat chunks see the same machine.
var workloads = []workload{
	{name: "daemon-paper", beam: 256, size: 64, w1Round: 20, satRound: 40, satOut: 16,
		replayW1: 200, replaySat: 400, checkReplay: true},
	{name: "daemon-small", beam: 16, size: 16, w1Round: 400, satRound: 1200, satOut: 32,
		replayW1: 2000, replaySat: 8000, checkReplay: true},
	{name: "fetch-delay4", fetches: 10, fetchBytes: 16 << 10, replayW1: 2},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Phase tags, used as the seq half of every flow's (conn, seq) identity.
const (
	seqProbe   = 1
	seqWarmW1  = 10
	seqW1      = 11
	seqWarmSat = 12
	seqSat     = 13
	seqBare    = 14
)

// payloads draws n payloads of size bytes from one stream of a seed; the
// same seed and stream give the same bytes.
func payloads(seed, stream int64, n, size int) [][]byte {
	rng := rand.New(rand.NewSource(seed*1_000_003 + stream))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// phaseReqs builds n requests of one phase, starting at its flow first:
// flow i is (conn i+1, seq), so consecutive flows alternate between
// spinald's two shards, and its payload depends on the seed, the phase
// and where the chunk starts.
func phaseReqs(seed int64, seq uint32, first, n, size int) []req {
	out := make([]req, n)
	for i, p := range payloads(seed, int64(seq)<<32|int64(first), n, size) {
		out[i] = newReq(uint32(first+i+1), seq, p)
	}
	return out
}
