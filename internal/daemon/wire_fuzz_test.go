package daemon

import (
	"bytes"
	"testing"
)

// FuzzDaemonWire holds the daemon's datagram grammar to its stance on
// bytes straight off the UDP socket: arbitrary input never panics, and
// any datagram parseSubmit or parseBatch accepts re-encodes byte for
// byte through appendSubmit or appendBatch, so the parsers admit exactly
// the encoders' language and no second spelling of any message.
func FuzzDaemonWire(f *testing.F) {
	submit := appendSubmit(nil, 7, 42, 3, []byte("payload"))
	batch := appendBatch(nil, []record{
		{conn: 1, seq: 2, shard: 3, status: StatusDelivered, bytes: 64, symbols: 900, ackSymbols: 12, checksum: 0xdeadbeef},
		{conn: 4, seq: 5, shard: 6, status: StatusOutage},
	})
	for _, valid := range [][]byte{
		submit,
		appendSubmit(nil, 0, 0, 0, nil),
		batch,
		appendBatch(nil, nil),
	} {
		f.Add(valid)
		f.Add(valid[:len(valid)-1])                     // truncated
		f.Add(append(valid[:len(valid):len(valid)], 0)) // padded
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := parseSubmit(data); err == nil {
			if got := appendSubmit(nil, s.conn, s.seq, s.weight, s.payload); !bytes.Equal(got, data) {
				t.Fatalf("submit %x re-encodes as %x", data, got)
			}
		}
		if recs, err := parseBatch(data); err == nil {
			if got := appendBatch(nil, recs); !bytes.Equal(got, data) {
				t.Fatalf("batch %x re-encodes as %x", data, got)
			}
		}
	})
}
