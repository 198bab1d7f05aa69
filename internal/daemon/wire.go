// Daemon wire protocol: the datagram grammar between spinald and its
// clients (spinalcat -loadgen, or anything speaking it). One UDP
// datagram carries either one submission (client → daemon) or a batch of
// result records (daemon → client): each shard groups a round's records
// per destination, so a busy daemon amortizes socket writes.
//
// All integers are little-endian. The connection ID sits at offset 1 of
// a submission because the kernel's steering program (steer_linux.go)
// reads it there. The parser is strict and bounded:
// structurally hostile bytes yield ErrBadDatagram, never a panic or an
// unbounded allocation — the same stance as the link wire codec.
package daemon

import (
	"encoding/binary"
	"errors"
)

// Datagram kinds.
const (
	kindSubmit = 0x53 // 'S': client submits one datagram for link service
	kindBatch  = 0x52 // 'R': daemon returns a batch of result records
)

// Result statuses.
const (
	// StatusDelivered: every code block decoded and the CRC-verified
	// datagram was reassembled; Checksum covers the delivered bytes.
	StatusDelivered = 0
	// StatusOutage: the flow exhausted its round budget before decoding.
	StatusOutage = 1
	// StatusRejected: the daemon is draining (or the submission was
	// unserviceable) and did not admit the flow.
	StatusRejected = 2
	// StatusError: the flow resolved with an internal error.
	StatusError = 3
)

// ErrBadDatagram reports bytes that do not parse as a daemon datagram.
var ErrBadDatagram = errors.New("daemon: malformed datagram")

// maxPayload bounds one submission's payload so a submit datagram stays
// within a single UDP datagram with headroom for the header.
const maxPayload = 60000

const (
	submitHeader = 10 // kind + conn + seq + weight
	batchHeader  = 3  // kind + count
	recordLen    = 27 // one result record
)

// submission is one parsed client request: serve payload as one link
// flow on connection conn, submission tag seq. (conn, seq) identifies
// the flow end to end — retried submissions of the same pair are
// idempotent at the daemon. weight is the flow's scheduling weight under
// a fair-queuing daemon (0 and 1 both mean the default share; ignored by
// a round-robin daemon).
type submission struct {
	conn    uint32
	seq     uint32
	weight  uint8
	payload []byte
}

// appendSubmit encodes a submission.
func appendSubmit(dst []byte, conn, seq uint32, weight uint8, payload []byte) []byte {
	dst = append(dst, kindSubmit)
	dst = binary.LittleEndian.AppendUint32(dst, conn)
	dst = binary.LittleEndian.AppendUint32(dst, seq)
	dst = append(dst, weight)
	return append(dst, payload...)
}

// parseSubmit decodes a submission; the payload aliases data.
func parseSubmit(data []byte) (submission, error) {
	if len(data) < submitHeader || data[0] != kindSubmit ||
		len(data)-submitHeader > maxPayload {
		return submission{}, ErrBadDatagram
	}
	return submission{
		conn:    binary.LittleEndian.Uint32(data[1:]),
		seq:     binary.LittleEndian.Uint32(data[5:]),
		weight:  data[9],
		payload: data[submitHeader:],
	}, nil
}

// record is one flow's outcome: identity, the shard that served it, its
// status, and the accounting a client needs to verify delivery and
// compute goodput without trusting wall clocks — symbols are the flow's
// forward airtime, ackSymbols its half-duplex reverse share, checksum
// the CRC-32 (IEEE) of the delivered datagram.
type record struct {
	conn       uint32
	seq        uint32
	shard      uint16
	status     uint8
	bytes      uint32
	symbols    uint32
	ackSymbols uint32
	checksum   uint32
}

// appendRecord encodes one record.
func appendRecord(dst []byte, r record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, r.conn)
	dst = binary.LittleEndian.AppendUint32(dst, r.seq)
	dst = binary.LittleEndian.AppendUint16(dst, r.shard)
	dst = append(dst, r.status)
	dst = binary.LittleEndian.AppendUint32(dst, r.bytes)
	dst = binary.LittleEndian.AppendUint32(dst, r.symbols)
	dst = binary.LittleEndian.AppendUint32(dst, r.ackSymbols)
	return binary.LittleEndian.AppendUint32(dst, r.checksum)
}

// appendBatch encodes a batch of records into one datagram.
func appendBatch(dst []byte, recs []record) []byte {
	dst = append(dst, kindBatch)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(recs)))
	for _, r := range recs {
		dst = appendRecord(dst, r)
	}
	return dst
}

// parseBatch decodes a result batch. The count must match the datagram
// length exactly; a truncated or padded batch is rejected whole.
func parseBatch(data []byte) ([]record, error) {
	if len(data) < batchHeader || data[0] != kindBatch {
		return nil, ErrBadDatagram
	}
	n := int(binary.LittleEndian.Uint16(data[1:]))
	if len(data) != batchHeader+n*recordLen {
		return nil, ErrBadDatagram
	}
	recs := make([]record, n)
	for i := range recs {
		b := data[batchHeader+i*recordLen:]
		recs[i] = record{
			conn:       binary.LittleEndian.Uint32(b),
			seq:        binary.LittleEndian.Uint32(b[4:]),
			shard:      binary.LittleEndian.Uint16(b[8:]),
			status:     b[10],
			bytes:      binary.LittleEndian.Uint32(b[11:]),
			symbols:    binary.LittleEndian.Uint32(b[15:]),
			ackSymbols: binary.LittleEndian.Uint32(b[19:]),
			checksum:   binary.LittleEndian.Uint32(b[23:]),
		}
	}
	return recs, nil
}

// flowKey packs a (conn, seq) pair into the dedup key shards index by.
func flowKey(conn, seq uint32) uint64 { return uint64(conn)<<32 | uint64(seq) }
