//go:build linux && !386

package daemon

import (
	"net"
	"testing"
	"time"
)

// TestKernelDropsCountsFullBuffer: 200 datagrams sent to a socket with a
// 4 KiB receive buffer and no reader overflow it, and kernelDrops
// counts exactly the ones the socket could not hold.
func TestKernelDropsCountsFullBuffer(t *testing.T) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	if err := rx.SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	if got := kernelDrops(rx); got != 0 {
		t.Fatalf("a fresh socket reports %d drops", got)
	}
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	const sent = 200
	msg := make([]byte, 64)
	for range sent {
		if _, err := tx.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	drops := kernelDrops(rx)
	read := 0
	buf := make([]byte, 128)
	for {
		rx.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if _, err := rx.Read(buf); err != nil {
			break
		}
		read++
	}
	if drops == 0 || read+int(drops) != sent {
		t.Fatalf("%d datagrams sent, %d read, %d dropped", sent, read, drops)
	}
	t.Logf("%d read, %d dropped", read, drops)
}
