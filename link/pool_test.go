package link

import (
	"bytes"
	"context"
	"testing"

	"spinal"
	"spinal/baseline"
	"spinal/channel"
)

// TestPoolStatsCountsEveryCode: a shared pool counts and caches the
// decoders of every code its sessions run. A Raptor session and spinal
// sessions share one pool; both codes deliver byte-exact payloads, the
// Raptor decoders show in DecodersBuilt, a second spinal session on the
// warmed pool builds no decoder, and the Raptor session's Close takes its
// decoders off the pool.
func TestPoolStatsCountsEveryCode(t *testing.T) {
	p := spinal.DefaultParams()
	p.B = 8
	pool := NewCodecPool(p, 2)
	defer pool.Close()
	payload := []byte("one datagram that every code must carry byte for byte")
	run := func(opts ...Option) *Session {
		t.Helper()
		s, err := NewSession(p, append(opts, WithSharedPool(pool),
			WithChannel(channel.NewAWGN(12, 1)))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Send(payload); err != nil {
			t.Fatal(err)
		}
		res, err := s.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Err != nil || !bytes.Equal(res[0].Datagram, payload) {
			t.Fatalf("flow did not deliver the payload: %+v", res)
		}
		return s
	}

	raptor := run(WithCode(baseline.Raptor()))
	raptorBuilt := pool.Stats().DecodersBuilt
	if raptorBuilt == 0 {
		t.Fatal("PoolStats counts no Raptor decoder")
	}
	if err := run().Close(); err != nil {
		t.Fatal(err)
	}
	warm := pool.Stats()
	if warm.DecodersBuilt == raptorBuilt {
		t.Fatal("PoolStats counts no spinal decoder")
	}
	if err := run().Close(); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st != warm {
		t.Fatalf("a second spinal session on the warmed pool built decoders: %+v -> %+v", warm, st)
	}

	if err := raptor.Close(); err != nil {
		t.Fatal(err)
	}
	spinalBuilt := int(warm.DecodersBuilt - raptorBuilt)
	if n := pool.p.CachedDecoders(); n != spinalBuilt {
		t.Fatalf("pool caches %d decoders after the Raptor session closed, want the %d spinal ones", n, spinalBuilt)
	}
}
