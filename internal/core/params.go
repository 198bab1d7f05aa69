// Package core implements spinal codes: the sequential-hash encoder of §3,
// the rateless symbol generator with tail symbols (§4.4) and puncturing
// (§5), and the bubble decoder of §4 for both AWGN (ℓ2 metric, optionally
// fading-aware) and BSC (Hamming metric) channels.
//
// The encoder hashes k-bit message chunks into a chain of 32-bit spine
// values s_i = h(s_{i-1}, m̄_i), seeds an RNG from each spine value, and
// maps c-bit RNG outputs through a constellation mapping function to I/Q
// symbols. The decoder searches the tree of message prefixes breadth
// first, keeping the B best subtrees of depth d at every step.
package core

import (
	"fmt"

	"spinal/internal/hashfn"
	"spinal/internal/modem"
)

// Params configures a spinal code. Encoder and decoder must use identical
// Params (they are the code).
type Params struct {
	// K is the number of message bits hashed per spine value (§3.1). The
	// decoding cost is exponential in K; the paper recommends 4.
	K int
	// B is the bubble decoder's beam width (§4.3): the widest beam it
	// searches with. Decode always runs at B; Decoder.DecodeWidth runs a
	// narrower beam, and the link's spinal decoder tries B/4 first when
	// B/4 ≥ 64 (see internal/code.Spinal).
	B int
	// D is the bubble decoder's subtree depth (§4.3). D=1 is the classical
	// M-algorithm and the configuration of most experiments.
	D int
	// C is the number of bits per constellation dimension (§3.3). The
	// paper recommends 6 for SNR up to 35 dB. For BSC use 1.
	C int
	// Tail is the total number of symbols generated from the final spine
	// value per pass (§4.4). 1 means no extra tail symbols; the paper
	// finds 2 most effective.
	Tail int
	// Ways is the puncturing fan-out (§5): 1 (none), 2, 4 or 8 subpasses
	// per pass.
	Ways int
	// Hash is the spine hash function; nil means Jenkins one-at-a-time.
	Hash hashfn.Hash
	// Seed is the initial spine value s0, shared by encoder and decoder.
	// The paper treats it as a scrambler; any value works.
	Seed uint32
	// Mapper is the constellation mapping function; nil means the uniform
	// mapper at C bits (§3.3).
	Mapper modem.Mapper
	// Kernel selects the decoder's branch-cost arithmetic; see the Kernel
	// constants. Encoder and BSC decoder ignore it, and it does not change
	// the code itself — only how the AWGN decoder evaluates path metrics.
	Kernel Kernel
}

// Kernel selects the arithmetic of the AWGN bubble decoder's hot path.
//
// The quantized kernel is the Appendix B fixed-point datapath realized in
// software (internal/hw): saturating int32 branch metrics over per-step
// distance tables, batched across all candidates of a spine step, with an
// in-place partial select keeping the beam. It requires the
// one-at-a-time hash, D = 1, no fading-aware symbols and a feasible
// quantization range (internal/hw.NewQuantizer); whenever any of those
// fail, a decode transparently uses the float path. Decoded bits match
// the float path wherever the float decode succeeds with margin; path
// costs agree within Decoder.QuantTolerance (see docs/API.md for the
// accuracy contract).
type Kernel int

const (
	// KernelAuto — the zero value and the default — uses the quantized
	// fixed-point kernel whenever the decode is eligible and the float
	// reference path otherwise.
	KernelAuto Kernel = iota
	// KernelFloat forces the float64 reference implementation.
	KernelFloat
	// KernelQuantized asks for the fixed-point kernel explicitly. The
	// policy is currently identical to KernelAuto (quantized when
	// eligible, float fallback otherwise — fallback keeps mid-stream
	// fading or adversarial symbol planes decodable); the distinct value
	// lets configs state intent and leaves room for Auto to grow
	// heuristics. Decoder.KernelUsed reports what actually ran.
	KernelQuantized
)

// DefaultParams returns the paper's recommended operating point:
// k=4, B=256, d=1, c=6, two tail symbols, 8-way puncturing (§7.1, §8.4).
func DefaultParams() Params {
	return Params{K: 4, B: 256, D: 1, C: 6, Tail: 2, Ways: 8}
}

// WithDefaults returns p with its optional fields filled (Hash, Mapper,
// Tail, Ways), as every constructor fills them. It panics on invalid
// parameters, as the constructors do.
func WithDefaults(p Params) Params { return p.withDefaults() }

// withDefaults fills optional fields and validates.
func (p Params) withDefaults() Params {
	if p.Hash == nil {
		p.Hash = hashfn.OneAtATime{}
	}
	if p.Mapper == nil {
		p.Mapper = modem.NewUniform(p.C)
	}
	if p.Tail == 0 {
		p.Tail = 1
	}
	if p.Ways == 0 {
		p.Ways = 1
	}
	p.check()
	return p
}

func (p Params) check() {
	if p.K < 1 || p.K > 8 {
		panic(fmt.Sprintf("core: K = %d out of range [1,8]", p.K))
	}
	if p.B < 1 {
		panic("core: beam width B must be ≥ 1")
	}
	if p.D < 1 {
		panic("core: depth D must be ≥ 1")
	}
	if p.C < 1 || p.C > 16 {
		panic(fmt.Sprintf("core: C = %d out of range [1,16]", p.C))
	}
	if p.Mapper.Bits() != p.C {
		panic("core: mapper bit width disagrees with C")
	}
	if p.Tail < 1 {
		panic("core: Tail must be ≥ 1")
	}
	switch p.Ways {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("core: Ways = %d not in {1,2,4,8}", p.Ways))
	}
	switch p.Kernel {
	case KernelAuto, KernelFloat, KernelQuantized:
	default:
		panic(fmt.Sprintf("core: unknown Kernel %d", p.Kernel))
	}
}

// numSpine returns the number of spine values for an n-bit message:
// ⌈n/k⌉. The final chunk may carry fewer than k bits.
func numSpine(nBits, k int) int {
	return (nBits + k - 1) / k
}

// NumSpine reports the number of spine values an nBits-bit message has
// under these parameters — the valid SymbolID.Chunk range is
// [0, NumSpine). Receivers use it to reject symbols a corrupt frame
// attributes to nonexistent chunks.
func (p Params) NumSpine(nBits int) int {
	k := p.K
	if k < 1 {
		k = 1
	}
	return numSpine(nBits, k)
}

// chunkBits returns the number of message bits consumed by chunk j.
func chunkBits(nBits, k, j int) int {
	if (j+1)*k <= nBits {
		return k
	}
	return nBits - j*k
}

// chunkAt extracts chunk j (k bits, LSB-first within the message bit
// stream) from a packed message. Bit i of the message is
// msg[i/8]>>(i%8)&1.
func chunkAt(msg []byte, nBits, k, j int) uint32 {
	var v uint32
	kb := chunkBits(nBits, k, j)
	for b := 0; b < kb; b++ {
		i := j*k + b
		v |= uint32(msg[i/8]>>(uint(i)%8)&1) << uint(b)
	}
	return v
}

// setChunk writes chunk j into a packed message buffer.
func setChunk(msg []byte, nBits, k, j int, v uint32) {
	kb := chunkBits(nBits, k, j)
	for b := 0; b < kb; b++ {
		i := j*k + b
		if v>>uint(b)&1 == 1 {
			msg[i/8] |= 1 << (uint(i) % 8)
		} else {
			msg[i/8] &^= 1 << (uint(i) % 8)
		}
	}
}

// spine computes the full spine s_1..s_{numSpine} for a message. The
// returned slice is 0-indexed: spine[j] is the state after consuming
// chunk j.
func spine(msg []byte, nBits int, p Params) []uint32 {
	ns := numSpine(nBits, p.K)
	out := make([]uint32, ns)
	s := p.Seed
	for j := 0; j < ns; j++ {
		s = p.Hash.Sum(s, chunkAt(msg, nBits, p.K, j), chunkBits(nBits, p.K, j))
		out[j] = s
	}
	return out
}
