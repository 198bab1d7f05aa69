//go:build linux && !386

package daemon

import (
	"net"
	"syscall"
	"unsafe"
)

// Linux's SO_MEMINFO socket option and the index of the socket's drop
// counter in the array it fills (SK_MEMINFO_DROPS, linux/sock_diag.h);
// package syscall exports neither.
const (
	soMeminfo      = 55
	skMeminfoDrops = 8
)

// kernelDrops reports the datagrams the kernel has dropped on c's
// receive path, chiefly for a full receive buffer, or 0 when the count
// cannot be read (a closed socket, a kernel without SO_MEMINFO).
func kernelDrops(c *net.UDPConn) int64 {
	rc, err := c.SyscallConn()
	if err != nil {
		return 0
	}
	var info [skMeminfoDrops + 1]uint32
	size := uint32(unsafe.Sizeof(info))
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.SOL_SOCKET, soMeminfo,
			uintptr(unsafe.Pointer(&info)), uintptr(unsafe.Pointer(&size)), 0)
	}); err != nil || errno != 0 || size < uint32(unsafe.Sizeof(info)) {
		return 0
	}
	return int64(info[skMeminfoDrops])
}
