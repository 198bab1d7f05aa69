//go:build unix

package daemon

import (
	"net"
	"net/netip"
	"syscall"
)

// sizeReadBuffer asks for a want-byte socket receive buffer and returns
// the size the kernel granted: Linux clamps the request to
// net.core.rmem_max without an error, and reports double the usable
// size to account for its bookkeeping.
func sizeReadBuffer(c *net.UDPConn, want int) (got int, err error) {
	rc, err := c.SyscallConn()
	if err == nil {
		err = c.SetReadBuffer(want)
	}
	if err == nil {
		err = control(rc, func(fd int) (err error) {
			got, err = syscall.GetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF)
			return err
		})
	}
	return got, err
}

// control runs f on the socket's descriptor.
func control(rc syscall.RawConn, f func(fd int) error) error {
	var ferr error
	if err := rc.Control(func(fd uintptr) { ferr = f(int(fd)) }); err != nil {
		return err
	}
	return ferr
}

// recvFrom reads one datagram into buf with recvfrom on the socket's
// non-blocking descriptor. An empty socket parks the goroutine in the
// runtime poller when block is set, and otherwise reports n = -1. The
// error is the socket's: a read deadline that has passed, or a closed
// socket.
func recvFrom(rc syscall.RawConn, buf []byte, block bool) (n int, from netip.AddrPort, err error) {
	var sa syscall.Sockaddr
	var rerr error
	err = rc.Read(func(fd uintptr) bool {
		for {
			n, sa, rerr = syscall.Recvfrom(int(fd), buf, 0)
			if rerr != syscall.EINTR {
				return rerr != syscall.EAGAIN || !block
			}
		}
	})
	switch {
	case err != nil:
		return 0, from, err
	case rerr == syscall.EAGAIN:
		return -1, from, nil
	case rerr != nil:
		return 0, from, rerr
	}
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		from = netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
	case *syscall.SockaddrInet6:
		from = netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), uint16(sa.Port))
	}
	return n, from, nil
}
