// Package code defines the code-agnostic contract between the link layer
// and a channel code, and adapts every code in the repository — spinal
// itself plus the §8 baselines (Raptor, Strider, rate-switched LDPC,
// plain turbo) — behind it.
//
// The interface captures exactly what the §6 link machinery consumes:
//
//   - a Schedule enumerating symbol IDs in transmission order (rateless
//     codes extend it forever; fixed-rate codes cycle their codeword,
//     which chase-combines at the receiver);
//   - an Encoder regenerating the symbols for any ID set (the engine's
//     pooled workers call it batch by batch — encoders carry no
//     transmission state);
//   - a Decoder accumulating (ID, symbol) observations and attempting an
//     incremental decode after each batch, returning the message bytes
//     plus the code's own convergence signal (the link layer still
//     arbitrates by CRC, so an overconfident code cannot corrupt a
//     datagram and an underconfident one merely retries).
//
// Symbol IDs are spinal's (chunk, RNG index) pairs. Stream-structured
// codes use chunk 0 and the RNG index as a position in their coded
// symbol stream, so the wire format, the receiver's replay-dedup and the
// engine's sharding work unchanged for every code.
package code

import (
	"fmt"
	"strings"

	"spinal/internal/core"
)

// SymbolID identifies one transmitted symbol. It is spinal's
// (chunk, RNG index) pair; stream codes set Chunk to 0 and use RNGIndex
// as the position in their coded symbol stream.
type SymbolID = core.SymbolID

// Schedule enumerates one code block's transmission order: repeated
// NextSubpass calls yield fresh symbol IDs forever (fixed-rate codes
// cycle; the receiver chase-combines repeats). SymbolsPerPass and
// Subpasses describe the granularity so rate policies can convert
// symbol budgets into subpass counts.
type Schedule interface {
	// NextSubpass returns the next batch of fresh symbol IDs. It may be
	// empty (short blocks under wide puncturing), but successive calls
	// must never repeat an ID.
	NextSubpass() []SymbolID
	// SymbolsPerPass reports the symbols one full pass carries.
	SymbolsPerPass() int
	// Subpasses reports the number of subpasses per pass.
	Subpasses() int
}

// Encoder regenerates the channel symbols for one code block. Encoders
// are stateless with respect to transmission progress — the Schedule
// owns position — so the engine can rebuild one on any pooled worker.
type Encoder interface {
	// Symbols returns the symbols for ids, in order. Constellations are
	// unit average power throughout the repository.
	Symbols(ids []SymbolID) []complex128
}

// Decoder accumulates symbol observations for one code block and
// attempts decodes. The link receiver replays a block's deduplicated
// observations into a freshly Reset decoder at each attempt, so
// implementations may keep all state behind Add and do the work in
// Decode.
type Decoder interface {
	// Reset clears accumulated observations for reuse on another block
	// of the same bit length.
	Reset()
	// Add records observations; ids[i] pairs with syms[i].
	Add(ids []SymbolID, syms []complex128)
	// Decode attempts to decode the observations accumulated since
	// Reset. It returns the message packed MSB-first into nBits/8 bytes
	// and the code's own confidence signal: false means the code knows
	// it has not converged (too few symbols, parity checks failing) and
	// the message may be nil. The caller arbitrates by CRC either way.
	Decode() ([]byte, bool)
}

// NarrowDecoder is the optional first rung of a Decoder's escalation
// ladder: a cheaper, less reliable decode of the same observations. The
// link receiver tries it first in every attempt and runs Decode only when
// the CRC rejects the narrow message — on the same observations, in the
// same attempt, so the ladder costs no airtime. The spinal decoder
// implements it with a narrower beam.
type NarrowDecoder interface {
	// DecodeNarrow decodes the observations accumulated since Reset with
	// the cheaper search. The message follows Decode's buffer contract;
	// ok is false when this decode has no narrow rung, and the caller
	// then runs Decode alone.
	DecodeNarrow() (msg []byte, ok bool)
}

// Code is a channel code the link layer can run: a family of
// per-block-size schedules, encoders and decoders. Implementations must
// be safe for concurrent NewEncoder/NewDecoder construction and
// concurrent use of distinct encoder/decoder instances (the engine calls
// them from sharded workers); Schedule construction happens on the
// engine thread.
type Code interface {
	// Name identifies the code ("spinal", "raptor", ...).
	Name() string
	// Chunks reports the number of distinct SymbolID.Chunk values a
	// block of nBits may use (spinal's spine length; 1 for stream
	// codes). The receiver rejects out-of-range chunks as corrupt.
	Chunks(nBits int) int
	// NewSchedule starts a fresh transmission order for an nBits-bit
	// block.
	NewSchedule(nBits int) Schedule
	// NewEncoder builds an encoder for a block whose message is bits
	// (nBits packed MSB-first).
	NewEncoder(bits []byte, nBits int) Encoder
	// NewDecoder builds a decoder for an nBits-bit block.
	NewDecoder(nBits int) Decoder
}

// RateAdapter is the optional feedback hook of a Code: the engine
// reports every decoded block's size and total symbol spend, exactly as
// it does to a rate policy's RateObserver. Codes that emulate
// ratelessness by switching fixed rates (the LDPC shim) use it to start
// later blocks near the rung the channel supports.
type RateAdapter interface {
	// ObserveDecode reports one decoded block: its size in bits and the
	// symbols spent on it. Called from the engine thread only.
	ObserveDecode(blockBits, symbolsSent int)
}

// Parse builds a code from its spec: "spinal" (the code of p),
// "raptor", "strider", "turbo", "ldpc" (adaptive rate/modulation
// ladder) or "ldpc:RATE" with RATE one of 1/2, 2/3, 3/4, 5/6 (that
// rate's modulation ladder only).
func Parse(spec string, p core.Params) (Code, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	switch name {
	case "", "spinal":
		if hasArg {
			return nil, fmt.Errorf("code: spec %q: spinal takes no argument", spec)
		}
		return Spinal(p), nil
	case "raptor":
		if hasArg {
			return nil, fmt.Errorf("code: spec %q: raptor takes no argument", spec)
		}
		return Raptor(), nil
	case "strider":
		if hasArg {
			return nil, fmt.Errorf("code: spec %q: strider takes no argument", spec)
		}
		return Strider(), nil
	case "turbo":
		if hasArg {
			return nil, fmt.Errorf("code: spec %q: turbo takes no argument", spec)
		}
		return Turbo(), nil
	case "ldpc":
		if !hasArg {
			return LDPC(""), nil
		}
		c, err := LDPCPinned(arg)
		if err != nil {
			return nil, fmt.Errorf("code: spec %q: %v", spec, err)
		}
		return c, nil
	}
	return nil, fmt.Errorf("code: unknown code %q (want spinal, raptor, strider, ldpc[:RATE] or turbo)", spec)
}
