//go:build unix

package daemon

import (
	"net"
	"syscall"
)

// sizeReadBuffer asks for a want-byte socket receive buffer and returns
// the size the kernel granted: Linux clamps the request to
// net.core.rmem_max without an error, and reports double the usable
// size to account for its bookkeeping.
func sizeReadBuffer(c *net.UDPConn, want int) (int, error) {
	if err := c.SetReadBuffer(want); err != nil {
		return 0, err
	}
	rc, err := c.SyscallConn()
	if err != nil {
		return 0, err
	}
	var got int
	var gerr error
	if err := rc.Control(func(fd uintptr) {
		got, gerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		return 0, err
	}
	return got, gerr
}
