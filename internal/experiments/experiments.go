// Package experiments regenerates every table and figure of the paper's
// evaluation (§8 and Appendix B). Each experiment is a deterministic,
// seeded function that returns one or more text tables with the same rows
// or series the paper reports.
//
// Two scales are supported. Quick scale (the default for benchmarks and
// CI) uses reduced trial counts, coarser SNR grids and smaller block
// sizes chosen so every qualitative claim — who wins, by roughly what
// factor, where crossovers fall — is stable run to run. Full scale
// approaches the paper's parameters at substantial runtime.
// EXPERIMENTS.md records paper-reported versus measured values.
package experiments

import (
	"fmt"
	"strings"
)

// Config selects the scale and base seed of an experiment run.
type Config struct {
	// Quick selects the reduced-scale parameters.
	Quick bool
	// Seed is the base RNG seed; all trials derive from it.
	Seed int64
}

// DefaultConfig is the quick, reproducible configuration.
func DefaultConfig() Config { return Config{Quick: true, Seed: 1} }

// Table is a rendered experiment result.
type Table struct {
	Name   string // experiment id, e.g. "fig8-1"
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", t.Name, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Experiment couples an id with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) []*Table
}

// All lists every reproducible experiment in paper order.
var All = []Experiment{
	{"fig8-1", "Rate and gap to capacity vs SNR: spinal, Raptor, Strider(+), LDPC envelope", Fig8_1},
	{"intro-table", "Aggregate spinal gains by SNR band (Chapter 1 table)", IntroTable},
	{"fig8-2", "Rateless spinal vs every fixed-rate spinal (hedging effect)", Fig8_2},
	{"fig8-3", "Small-packet fraction of capacity: spinal, Raptor, Strider(+)", Fig8_3},
	{"fig8-4", "Rayleigh fading with known h: spinal vs Strider+", Fig8_4},
	{"fig8-5", "Rayleigh fading with AWGN decoders (no fading info)", Fig8_5},
	{"fig8-6", "Fraction of capacity vs compute budget B·2^k/k for k=1..6", Fig8_6},
	{"fig8-7", "Bubble depth d vs beam width B at constant node budget", Fig8_7},
	{"fig8-8", "Rate vs SNR for output density c=1..6", Fig8_8},
	{"fig8-9", "Gap to capacity vs number of tail symbols", Fig8_9},
	{"fig8-10", "Gap to capacity vs puncturing schedule", Fig8_10},
	{"fig8-11", "CDF of symbols needed to decode at various SNRs", Fig8_11},
	{"fig8-12", "Effect of code block length n on gap to capacity", Fig8_12},
	{"table8-1", "OFDM PAPR for QAM-4/64/2^20 and truncated Gaussian", Table8_1},
	{"figB-2", "Hardware-prototype parameters in simulation (n=192, B=4, c=7)", FigB_2},
	{"bsc", "Spinal codes on the BSC vs 1-H(p) capacity (§4.6 claim; no paper figure)", BSCExtra},
	{"hash-ablation", "Hash function choice does not affect performance (§7.1)", HashAblation},
	{"hw-model", "Appendix B hardware decoder throughput/area model", HWModel},
	{"ablation-attempts", "Decode-attempt granularity ablation (engine design choice)", AttemptAblation},
	{"ge-channel", "Bursty Gilbert-Elliott channel: rateless vs best fixed rate", GEChannel},
	{"scenario-goodput", "Time-varying channel scenario: link goodput by rate policy", ScenarioGoodput},
	{"feedback-goodput", "Realistic ARQ feedback: goodput under ack delay/loss and half-duplex airtime", FeedbackGoodput},
	{"chaos-degradation", "Adversarial links: goodput degradation vs fault intensity (no cliff)", ChaosDegradation},
	{"baseline-goodput", "Codes bake-off: every §8 code through the link engine vs the LDPC oracle envelope", BaselineGoodput},
	{"daemon-goodput", "spinald scaling: aggregate goodput vs concurrent flows over one UDP socket", DaemonGoodput},
	{"flow-fairness", "Flow scheduling: mice-elephants fairness and tail latency, RR vs DWFQ", FlowFairness},
	{"transport-fetch", "Windowed fetch: one flow per segment vs reverse-channel impairment", TransportFetch},
}

// ByID finds an experiment by id, or nil.
func ByID(id string) *Experiment {
	for i := range All {
		if All[i].ID == id {
			return &All[i]
		}
	}
	return nil
}

// f formats a float at fixed precision, rendering NaN/Inf as "-".
func f2(v float64) string {
	if v != v || v > 1e17 || v < -1e17 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

func f3(v float64) string {
	if v != v || v > 1e17 || v < -1e17 {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}
