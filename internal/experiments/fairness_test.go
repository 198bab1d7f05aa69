package experiments

import (
	"strconv"
	"testing"
)

// TestFairnessOrdering asserts the flow-fairness experiment's headline
// claims on the exact configuration the table reports (32 concurrent
// flows, quick scale): DWFQ reaches near-perfect fairness (Jain ≥ 0.95),
// strictly beats round-robin's index, and does not worsen the mice
// completion tail.
func TestFairnessOrdering(t *testing.T) {
	cfg := DefaultConfig()
	rr := fairnessPoint(cfg, 32, "rr")
	dwfq := fairnessPoint(cfg, 32, "dwfq")
	if rr.Delivered != rr.Flows || dwfq.Delivered != dwfq.Flows {
		t.Fatalf("fairness mix not fully delivered: rr %d/%d, dwfq %d/%d",
			rr.Delivered, rr.Flows, dwfq.Delivered, dwfq.Flows)
	}
	if dwfq.JainIndex < 0.95 {
		t.Fatalf("DWFQ Jain index %.4f below the 0.95 bar", dwfq.JainIndex)
	}
	if dwfq.JainIndex <= rr.JainIndex {
		t.Fatalf("DWFQ Jain %.4f does not beat RR's %.4f", dwfq.JainIndex, rr.JainIndex)
	}
	if dwfq.MiceP99Rounds > rr.MiceP99Rounds {
		t.Fatalf("DWFQ mice p99 %d rounds worse than RR's %d",
			dwfq.MiceP99Rounds, rr.MiceP99Rounds)
	}
	t.Logf("jain rr=%.4f dwfq=%.4f, mice p99 rr=%d dwfq=%d",
		rr.JainIndex, dwfq.JainIndex, rr.MiceP99Rounds, dwfq.MiceP99Rounds)
}

// TestTransportFetchTable runs the transport-fetch experiment: all three
// reverse-channel rows deliver every segment, and since no segment is
// ever resubmitted, late or lost acks cost each impaired row at most a
// tenth of the instant-ack row's goodput.
func TestTransportFetchTable(t *testing.T) {
	tables := TransportFetch(DefaultConfig())
	if len(tables) != 1 || len(tables[0].Rows) != 3 {
		t.Fatalf("unexpected table shape: %+v", tables)
	}
	rows := tables[0].Rows
	goodput := func(row []string) float64 {
		g, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatalf("goodput cell of %v: %v", row, err)
		}
		return g
	}
	instant := goodput(rows[0])
	for _, row := range rows {
		if row[1] != "16" {
			t.Fatalf("row %v: %s segments, want 16", row, row[1])
		}
		if g := goodput(row); g < 0.9*instant {
			t.Fatalf("row %v: goodput %.3f below 0.9× the instant row's %.3f", row, g, instant)
		}
	}
}
