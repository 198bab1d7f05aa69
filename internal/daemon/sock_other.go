//go:build !unix

package daemon

import (
	"errors"
	"net"
	"net/netip"
	"syscall"
)

// errNoUnix reports a system without the unix socket calls a shard reads
// its socket with.
var errNoUnix = errors.New("spinald needs a unix system")

func listen(string, int) ([]*net.UDPConn, error) { return nil, errNoUnix }

func sizeReadBuffer(*net.UDPConn, int) (int, error) { return 0, errNoUnix }

func recvFrom(syscall.RawConn, []byte, bool) (int, netip.AddrPort, error) {
	return 0, netip.AddrPort{}, errNoUnix
}
