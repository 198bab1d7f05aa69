package experiments

import (
	"bytes"
	"math/cmplx"
	"math/rand"
	"slices"

	"spinal/internal/channel"
	"spinal/internal/ldpc"
	"spinal/internal/memo"
	"spinal/internal/modem"
	"spinal/internal/raptor"
	"spinal/internal/sim"
	"spinal/internal/strider"
)

// ldpcCodes caches the envelope's codes, one per rate of ldpc.Rates,
// each seeded by its index (construction is deterministic).
var ldpcCodes = memo.New(func(rate string) *ldpc.Code {
	return ldpc.NewQC(rate, 27, int64(1000+slices.Index(ldpc.Rates, rate)))
})

// ldpcEnvelope measures the best-envelope throughput of the LDPC family
// (every rate × modulation pair, §8's SoftRate-like genie selection) at
// one SNR: max over pairs of rate·bitsPerSymbol·P(block success).
func ldpcEnvelope(snrDB float64, blocksPerPoint int, seed int64) float64 {
	mods := []int{4, 16, 64, 256}
	type job struct {
		rate string
		pts  int
	}
	var jobs []job
	for _, r := range ldpc.Rates {
		for _, m := range mods {
			jobs = append(jobs, job{r, m})
		}
	}
	rates := sim.Parallel(len(jobs), func(j int) float64 {
		code := ldpcCodes.Get(jobs[j].rate)
		qam := modem.NewQAM(jobs[j].pts)
		rng := rand.New(rand.NewSource(seed + int64(j)*977))
		okCount := 0
		for b := 0; b < blocksPerPoint; b++ {
			info := make([]byte, code.K())
			for i := range info {
				info[i] = byte(rng.Intn(2))
			}
			cw := code.Encode(info)
			// Pad codeword bits to a whole number of symbols.
			bps := qam.BitsPerSymbol()
			padded := cw
			if len(cw)%bps != 0 {
				padded = append(append([]byte(nil), cw...), make([]byte, bps-len(cw)%bps)...)
			}
			ch := channel.NewAWGN(snrDB, seed+int64(j)*1009+int64(b))
			llr := qam.DemapSoft(ch.Transmit(qam.Modulate(padded)), ch.NoiseVar(), nil)
			got, conv := code.Decode(llr[:code.N()], 40)
			if !conv {
				continue
			}
			match := true
			for i := 0; i < code.K(); i++ {
				if got[i] != info[i] {
					match = false
					break
				}
			}
			if match {
				okCount++
			}
		}
		eff := code.RateValue() * float64(qam.BitsPerSymbol())
		return eff * float64(okCount) / float64(blocksPerPoint)
	})
	best := 0.0
	for _, r := range rates {
		if r > best {
			best = r
		}
	}
	return best
}

// raptorRate measures the Raptor/QAM rate at one SNR: symbols accumulate
// in batches with a decode attempt per batch until success or the symbol
// budget runs out. Returns Σbits/Σsymbols over trials.
func raptorRate(k int, qamPoints int, snrDB float64, trials int, seed int64) float64 {
	outs := sim.Parallel(trials, func(trial int) sim.Outcome {
		s := seed + int64(trial)*31
		rng := rand.New(rand.NewSource(s))
		code := raptor.New(k, s^0xabc)
		msg := make([]byte, k)
		for i := range msg {
			msg[i] = byte(rng.Intn(2))
		}
		qam := modem.NewQAM(qamPoints)
		ch := channel.NewAWGN(snrDB, s^0xdef)
		dec := raptor.NewDecoder(code)

		// Budget: generous multiple of the information-theoretic minimum;
		// decode attempts land roughly every 4% of the expected total so
		// attempt cost stays bounded at low SNR.
		bps := qam.BitsPerSymbol()
		minSyms := float64(k) / max2(0.05, 0.8*capAt(snrDB))
		batchSyms := int(minSyms / 25)
		if batchSyms < 4 {
			batchSyms = 4
		}
		maxSyms := int(4*minSyms) + 8*batchSyms
		symbols := 0
		t0 := 0
		for symbols < maxSyms {
			bits := code.OutputBits(msg, t0, batchSyms*bps)
			y := ch.Transmit(qam.Modulate(bits))
			dec.Add(t0, qam.DemapSoft(y, ch.NoiseVar(), nil))
			t0 += batchSyms * bps
			symbols += batchSyms
			if got, ok := dec.Decode(40); ok && bytes.Equal(got, msg) {
				return sim.Outcome{Symbols: symbols, Bits: k, OK: true}
			}
		}
		return sim.Outcome{Symbols: symbols}
	})
	return sim.Aggregate(snrDB, outs).Rate
}

// striderOpts configures a Strider measurement.
type striderOpts struct {
	cfg    strider.Config
	plus   bool // Strider+ (8-way puncturing)
	fading *sim.Fading
}

// striderRate measures Strider's rate at one SNR.
func striderRate(o striderOpts, snrDB float64, trials int, seed int64) float64 {
	if o.plus {
		o.cfg.Subpasses = 8
	} else {
		o.cfg.Subpasses = 1
	}
	outs := sim.Parallel(trials, func(trial int) sim.Outcome {
		s := seed + int64(trial)*67
		cfg := o.cfg
		cfg.Seed = s ^ 0x57e1de5
		code := strider.New(cfg)
		rng := rand.New(rand.NewSource(s))
		msg := make([]byte, code.MessageBits())
		for i := range msg {
			msg[i] = byte(rng.Intn(2))
		}
		tx := code.Encode(msg)
		dec := strider.NewDecoder(code)

		var awgn *channel.AWGN
		var ray *channel.Rayleigh
		if o.fading != nil {
			ray = channel.NewRayleigh(snrDB, o.fading.Tau, s^0xfade)
		} else {
			awgn = channel.NewAWGN(snrDB, s^0xfade)
		}
		noiseVar := 0.0
		if ray != nil {
			noiseVar = ray.NoiseVar()
		} else {
			noiseVar = awgn.NoiseVar()
		}

		symbols := 0
		for p := 0; p < code.MaxPasses(); p++ {
			for sp := 0; sp < code.Subpasses(); sp++ {
				var x []complex128
				var pos []int
				if code.Subpasses() == 1 {
					x = tx.Pass(p)
					pos = nil
				} else {
					x, pos = tx.Subpass(p, sp)
				}
				var y, h []complex128
				if ray != nil {
					y, h = ray.Transmit(x)
					switch {
					case o.fading.ProvideH:
					case o.fading.PhaseOnly:
						for i, hv := range h {
							m := cmplx.Abs(hv)
							if m < 1e-12 {
								h[i] = 1
							} else {
								h[i] = hv / complex(m, 0)
							}
						}
					default:
						h = nil
					}
				} else {
					y = awgn.Transmit(x)
				}
				if pos == nil {
					dec.AddPass(p, y, h)
				} else {
					dec.AddSubpass(p, pos, y, h)
				}
				symbols += len(x)
				if got, ok := dec.TryDecode(noiseVar); ok && bytes.Equal(got, msg) {
					return sim.Outcome{Symbols: symbols, Bits: code.MessageBits(), OK: true}
				}
			}
		}
		return sim.Outcome{Symbols: symbols}
	})
	return sim.Aggregate(snrDB, outs).Rate
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
