// Package code is the public face of the library's code-agnostic channel
// code contract: the one interface the link layer needs from a code —
// rateless (or rate-emulating) symbol schedules, batch encoding,
// incremental decode attempts with a confidence signal, and an optional
// feedback hook for rate adaptation — plus constructors for every code
// the repository ships behind it (spinal itself and the §8 baselines;
// see spinal/baseline).
//
// The interface is a stable API tier like spinal and spinal/link; the
// individual baseline adapters are experiment-tier (see docs/API.md).
// Run a session over any code with link.WithCode.
package code

import (
	"spinal"
	icode "spinal/internal/code"
)

// SymbolID identifies one transmitted symbol: spinal's (chunk, RNG
// index) pair, reused by stream codes as a stream position with chunk 0.
type SymbolID = icode.SymbolID

// Schedule enumerates one code block's transmission order.
type Schedule = icode.Schedule

// Encoder regenerates the channel symbols for one code block.
type Encoder = icode.Encoder

// Decoder accumulates symbol observations and attempts decodes.
type Decoder = icode.Decoder

// Code is a channel code the link layer can run.
type Code = icode.Code

// RateAdapter is the optional feedback hook of a Code: the engine
// reports every decoded block's size and total symbol spend.
type RateAdapter = icode.RateAdapter

// Spinal adapts the spinal code with parameters p behind the Code
// interface. It is the code a session runs by default, so sessions over
// Spinal(p) send the same symbols and decode the same blocks as
// sessions over p directly.
func Spinal(p spinal.Params) Code { return icode.Spinal(p) }

// Parse builds a code from its spec string: "spinal" (the code of p),
// "raptor", "strider", "turbo", "ldpc" (adaptive rate/modulation ladder)
// or "ldpc:RATE" with RATE one of 1/2, 2/3, 3/4, 5/6.
func Parse(spec string, p spinal.Params) (Code, error) { return icode.Parse(spec, p) }
