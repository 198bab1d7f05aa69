package channel

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
)

// Model is the unified interface of the time-varying channel tier: a
// per-symbol Transmit that advances the channel's internal state, plus an
// observable StateDB reporting the instantaneous effective SNR in dB.
// Fixed channels (AWGN) implement it trivially; the Gilbert–Elliott,
// random-walk and trace-driven channels expose the SNR trajectory a
// rateless link actually experiences, so scenario drivers can log the
// conditions each flow saw and rate policies can be judged against them.
//
// StateDB reports the channel's current state — the SNR in effect for the
// most recently transmitted symbol (channels that advance state lazily
// may move on to a new state only when the next symbol is transmitted).
// Calling it is free of side effects.
type Model interface {
	Transmit(x []complex128) []complex128
	StateDB() float64
}

// Static channels satisfy Model too.
var (
	_ Model = (*AWGN)(nil)
	_ Model = (*GilbertElliott)(nil)
	_ Model = (*Walk)(nil)
	_ Model = (*Trace)(nil)
)

// StateDB reports the AWGN channel's fixed SNR in dB.
func (c *AWGN) StateDB() float64 { return -10 * math.Log10(c.noiseVar) }

// StateDB reports the SNR of the Gilbert–Elliott channel's current Markov
// state.
func (c *GilbertElliott) StateDB() float64 {
	if c.bad {
		return -10 * math.Log10(c.badVar)
	}
	return -10 * math.Log10(c.goodVar)
}

// Walk is a bounded Markov SNR random walk over AWGN: every Interval
// symbols the SNR takes a ±StepDB step, reflected into [MinDB, MaxDB].
// It models slow mobility — a station drifting through coverage — at time
// scales a single rateless message can straddle.
type Walk struct {
	rng      *rand.Rand
	snrDB    float64
	minDB    float64
	maxDB    float64
	stepDB   float64
	interval int
	left     int // symbols until the next step
}

// NewWalk creates a random-walk channel starting at startDB, stepping by
// ±stepDB every interval symbols, bounded to [minDB, maxDB].
func NewWalk(startDB, minDB, maxDB, stepDB float64, interval int, seed int64) *Walk {
	if minDB > maxDB {
		panic("channel: walk bounds inverted")
	}
	if stepDB < 0 {
		panic("channel: negative walk step")
	}
	if interval < 1 {
		panic("channel: walk interval must be ≥ 1 symbol")
	}
	return &Walk{
		rng:      rand.New(rand.NewSource(seed)),
		snrDB:    clampDB(startDB, minDB, maxDB),
		minDB:    minDB,
		maxDB:    maxDB,
		stepDB:   stepDB,
		interval: interval,
		left:     interval,
	}
}

// StateDB reports the walk's current SNR in dB.
func (c *Walk) StateDB() float64 { return c.snrDB }

// Transmit adds Gaussian noise at the walk's current SNR, advancing the
// walk per symbol. State persists across calls.
func (c *Walk) Transmit(x []complex128) []complex128 {
	y := make([]complex128, len(x))
	sd := math.Sqrt(math.Pow(10, -c.snrDB/10) / 2)
	for i, s := range x {
		if c.left == 0 {
			step := c.stepDB
			if c.rng.Float64() < 0.5 {
				step = -step
			}
			c.snrDB = clampDB(c.snrDB+step, c.minDB, c.maxDB)
			c.left = c.interval
			sd = math.Sqrt(math.Pow(10, -c.snrDB/10) / 2)
		}
		c.left--
		y[i] = s + complex(c.rng.NormFloat64()*sd, c.rng.NormFloat64()*sd)
	}
	return y
}

func clampDB(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// TraceSegment is one piece of an SNR-vs-time series: the channel holds
// SNRdB for Symbols channel symbols.
type TraceSegment struct {
	Symbols int
	SNRdB   float64
}

// Trace replays a recorded SNR-vs-time series over AWGN. The SNR
// trajectory is a pure function of symbol position — the seed drives only
// the noise realization, so the state sequence is identical across seeds
// and every replay is reproducible. The trace wraps around when exhausted.
type Trace struct {
	rng  *rand.Rand
	segs []TraceSegment
	seg  int
	left int // symbols left in the current segment
}

// NewTrace creates a trace-driven channel from segments (copied) and a
// noise seed.
func NewTrace(segs []TraceSegment, seed int64) *Trace {
	if len(segs) == 0 {
		panic("channel: empty SNR trace")
	}
	cp := make([]TraceSegment, len(segs))
	copy(cp, segs)
	for _, s := range cp {
		if s.Symbols < 1 {
			panic("channel: trace segment must span ≥ 1 symbol")
		}
	}
	return &Trace{
		rng:  rand.New(rand.NewSource(seed)),
		segs: cp,
		left: cp[0].Symbols,
	}
}

// StateDB reports the SNR of the trace's current position.
func (c *Trace) StateDB() float64 { return c.segs[c.seg].SNRdB }

// MeanDB reports the symbol-weighted mean SNR of one full trace period —
// the long-run estimate a sender with only historical knowledge would use.
func (c *Trace) MeanDB() float64 {
	var sum float64
	var n int
	for _, s := range c.segs {
		sum += s.SNRdB * float64(s.Symbols)
		n += s.Symbols
	}
	return sum / float64(n)
}

// Transmit adds Gaussian noise at the trace's current SNR, advancing the
// replay position per symbol (wrapping at the end). State persists across
// calls.
func (c *Trace) Transmit(x []complex128) []complex128 {
	y := make([]complex128, len(x))
	sd := math.Sqrt(math.Pow(10, -c.segs[c.seg].SNRdB/10) / 2)
	for i, s := range x {
		if c.left == 0 {
			c.seg = (c.seg + 1) % len(c.segs)
			c.left = c.segs[c.seg].Symbols
			sd = math.Sqrt(math.Pow(10, -c.segs[c.seg].SNRdB/10) / 2)
		}
		c.left--
		y[i] = s + complex(c.rng.NormFloat64()*sd, c.rng.NormFloat64()*sd)
	}
	return y
}

// maxTraceDB bounds a trace's SNRs: past ±100 dB is no radio's SNR, and
// below −100 dB the noise outgrows the link receiver's symbol-magnitude
// bound.
const maxTraceDB = 100

// ParseTrace parses an SNR trace: one "<symbols> <snr_dB>" pair per line,
// with blank lines and #-comments ignored. SNRs must lie within ±100 dB
// (NaN and ±Inf are rejected) and the symbol counts must sum to at most
// math.MaxInt.
func ParseTrace(r *bufio.Scanner) ([]TraceSegment, error) {
	var segs []TraceSegment
	line, total := 0, 0
	for r.Scan() {
		line++
		text := strings.TrimSpace(r.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("channel: trace line %d: want \"<symbols> <snr_dB>\", got %q", line, text)
		}
		n, err := strconv.Atoi(fields[0])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("channel: trace line %d: bad symbol count %q", line, fields[0])
		}
		if n > math.MaxInt-total {
			return nil, fmt.Errorf("channel: trace line %d: symbol counts overflow int", line)
		}
		total += n
		snr, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || !(math.Abs(snr) <= maxTraceDB) { // NaN fails this too
			return nil, fmt.Errorf("channel: trace line %d: bad SNR %q (want a number within ±%d dB)", line, fields[1], maxTraceDB)
		}
		segs = append(segs, TraceSegment{Symbols: n, SNRdB: snr})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("channel: trace holds no segments")
	}
	return segs, nil
}

// LoadTrace reads an SNR trace file (see ParseTrace for the format).
func LoadTrace(path string) ([]TraceSegment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseTrace(bufio.NewScanner(f))
}

// NewTraceFromFile loads path and builds a trace-driven channel.
func NewTraceFromFile(path string, seed int64) (*Trace, error) {
	segs, err := LoadTrace(path)
	if err != nil {
		return nil, err
	}
	return NewTrace(segs, seed), nil
}
