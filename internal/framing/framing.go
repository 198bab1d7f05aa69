// Package framing implements the §6 link layer's block framing for spinal
// codes: datagrams are divided into code blocks of at most 1024 bits,
// each protected by a 16-bit CRC, and ACKs carry one bit per code block.
// The frames themselves, with the sequence number that keeps an erased
// frame from desynchronizing the receiver, are internal/link's.
package framing

// CRC16 computes the CCITT-FALSE CRC-16 (polynomial 0x1021, initial value
// 0xFFFF) over data, the checksum the §6 link layer appends to every code
// block.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// MaxBlockBits is the maximum code block size including the CRC (§6 uses
// 1024-bit code blocks).
const MaxBlockBits = 1024

// CRCBits is the per-block CRC overhead.
const CRCBits = 16

// Block is one code block: payload bytes plus its CRC, ready for the
// encoder.
type Block struct {
	// Payload is the datagram fragment carried by this block.
	Payload []byte
	// CRC protects Payload.
	CRC uint16
}

// Bits returns the block serialized for encoding: payload bytes followed
// by the big-endian CRC.
func (b Block) Bits() []byte {
	out := make([]byte, len(b.Payload)+2)
	copy(out, b.Payload)
	out[len(b.Payload)] = byte(b.CRC >> 8)
	out[len(b.Payload)+1] = byte(b.CRC)
	return out
}

// NumBits reports the encoded size of the block in bits.
func (b Block) NumBits() int { return (len(b.Payload) + 2) * 8 }

// Verify recomputes the CRC of a decoded block serialization and reports
// whether it matches; on success it returns the payload.
func Verify(decoded []byte) ([]byte, bool) {
	if len(decoded) < 2 {
		return nil, false
	}
	payload := decoded[:len(decoded)-2]
	want := uint16(decoded[len(decoded)-2])<<8 | uint16(decoded[len(decoded)-1])
	return payload, CRC16(payload) == want
}

// Segment divides a datagram into code blocks no larger than maxBlockBits
// (CRC included). maxBlockBits of 0 means MaxBlockBits.
func Segment(datagram []byte, maxBlockBits int) []Block {
	if maxBlockBits == 0 {
		maxBlockBits = MaxBlockBits
	}
	if maxBlockBits < CRCBits+8 {
		panic("framing: block size cannot fit CRC plus any payload")
	}
	payloadBytes := (maxBlockBits - CRCBits) / 8
	var blocks []Block
	for off := 0; off < len(datagram); off += payloadBytes {
		end := off + payloadBytes
		if end > len(datagram) {
			end = len(datagram)
		}
		p := datagram[off:end]
		blocks = append(blocks, Block{Payload: p, CRC: CRC16(p)})
	}
	if len(blocks) == 0 {
		blocks = append(blocks, Block{Payload: nil, CRC: CRC16(nil)})
	}
	return blocks
}

// Reassemble concatenates verified block payloads back into the datagram.
func Reassemble(payloads [][]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = append(out, p...)
	}
	return out
}

// Ack is the receiver's reply: one bit per code block of the current
// datagram (§6), plus the sequence number it acknowledges.
type Ack struct {
	Seq     uint32
	Decoded []bool
}

// AllDecoded reports whether every block has been acknowledged.
func (a Ack) AllDecoded() bool {
	for _, d := range a.Decoded {
		if !d {
			return false
		}
	}
	return len(a.Decoded) > 0
}
