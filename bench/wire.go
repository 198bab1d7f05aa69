package main

import (
	"encoding/binary"
	"errors"
)

// The spinald datagram grammar, written again from its specification so
// the benchmark depends on public packages only. A client sends one
// submission per datagram; spinald answers with batches of fixed-size
// result records. All integers are little-endian. If spinald's grammar
// drifts, the wire test in bench_test.go fails against the public
// daemon.New.
const (
	kindSubmit = 0x53 // 'S'
	kindBatch  = 0x52 // 'R'

	submitHeader = 10 // kind, conn u32, seq u32, weight u8
	batchHeader  = 3  // kind, count u16
	recordLen    = 27 // conn u32, seq u32, shard u16, status u8, bytes, symbols, ackSymbols, crc32 (u32 each)
)

var errBadBatch = errors.New("bench: malformed result batch")

// appendSubmit encodes one submission with the default weight.
func appendSubmit(dst []byte, conn, seq uint32, payload []byte) []byte {
	dst = append(dst, kindSubmit)
	dst = binary.LittleEndian.AppendUint32(dst, conn)
	dst = binary.LittleEndian.AppendUint32(dst, seq)
	dst = append(dst, 0)
	return append(dst, payload...)
}

// record is one flow outcome as spinald reports it.
type record struct {
	conn, seq  uint32
	shard      uint16
	status     uint8
	bytes      uint32
	symbols    uint32
	ackSymbols uint32
	crc        uint32
}

// parseBatch decodes a result batch into dst[:0]. The record count must
// match the datagram length exactly.
func parseBatch(dst []record, data []byte) ([]record, error) {
	if len(data) < batchHeader || data[0] != kindBatch {
		return dst[:0], errBadBatch
	}
	n := int(binary.LittleEndian.Uint16(data[1:]))
	if len(data) != batchHeader+n*recordLen {
		return dst[:0], errBadBatch
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		b := data[batchHeader+i*recordLen:]
		dst = append(dst, record{
			conn:       binary.LittleEndian.Uint32(b),
			seq:        binary.LittleEndian.Uint32(b[4:]),
			shard:      binary.LittleEndian.Uint16(b[8:]),
			status:     b[10],
			bytes:      binary.LittleEndian.Uint32(b[11:]),
			symbols:    binary.LittleEndian.Uint32(b[15:]),
			ackSymbols: binary.LittleEndian.Uint32(b[19:]),
			crc:        binary.LittleEndian.Uint32(b[23:]),
		})
	}
	return dst, nil
}
