package daemon

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"syscall"
	"unsafe"
)

// Linux socket options package syscall does not export on every
// architecture.
const (
	soReuseport           = 15
	soAttachReuseportCBPF = 51
)

// listen binds n UDP sockets to addr in one SO_REUSEPORT group, socket i
// for shard i, and attaches the steering program that sends each
// submission to the socket of its shard.
func listen(addr string, n int) ([]*net.UDPConn, error) {
	var lc net.ListenConfig
	if n > 1 {
		lc.Control = func(_, _ string, rc syscall.RawConn) error {
			return control(rc, func(fd int) error { return syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, soReuseport, 1) })
		}
	}
	var conns []*net.UDPConn
	for len(conns) < n {
		pc, err := lc.ListenPacket(context.Background(), "udp", addr)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, pc.(*net.UDPConn))
		// The group shares the first socket's port, ephemeral or not.
		addr = pc.LocalAddr().String()
	}
	if n > 1 {
		if err := attachSteering(conns[0], n); err != nil {
			closeAll(conns)
			return nil, fmt.Errorf("attach steering program: %w", err)
		}
	}
	return conns, nil
}

// steerProgram is the classic-BPF program the kernel runs on each
// datagram reaching the group: it sees the UDP payload at offset 0 and
// returns the index, in bind order, of the socket that gets it. A
// submission's connection ID is the little-endian uint32 at offset 1, so
// the program returns conn mod n. A datagram too short to hold the
// bytes it loads goes to socket 0, whose shard counts a parse error.
func steerProgram(n int) []syscall.SockFilter {
	const (
		ldb  = syscall.BPF_LD | syscall.BPF_B | syscall.BPF_ABS
		andK = syscall.BPF_ALU | syscall.BPF_AND | syscall.BPF_K
		lshK = syscall.BPF_ALU | syscall.BPF_LSH | syscall.BPF_K
		orX  = syscall.BPF_ALU | syscall.BPF_OR | syscall.BPF_X
		modK = syscall.BPF_ALU | 0x90 | syscall.BPF_K // BPF_MOD, not exported by package syscall
		tax  = syscall.BPF_MISC | syscall.BPF_TAX
		retA = syscall.BPF_RET | syscall.BPF_A
	)
	if n&(n-1) == 0 && n <= 256 {
		// The low byte of conn decides it.
		return []syscall.SockFilter{{Code: ldb, K: 1}, {Code: andK, K: uint32(n - 1)}, {Code: retA}}
	}
	// A = b4<<24 | b3<<16 | b2<<8 | b1, assembled through X.
	prog := []syscall.SockFilter{{Code: ldb, K: 4}}
	for k := uint32(3); k >= 1; k-- {
		prog = append(prog, syscall.SockFilter{Code: lshK, K: 8}, syscall.SockFilter{Code: tax},
			syscall.SockFilter{Code: ldb, K: k}, syscall.SockFilter{Code: orX})
	}
	return append(prog, syscall.SockFilter{Code: modK, K: uint32(n)}, syscall.SockFilter{Code: retA})
}

// attachSteering attaches steerProgram(n) to c's reuseport group. The
// sock_fprog goes through SetsockoptString as raw bytes, which works on
// every Linux architecture (linux/386 has no direct setsockopt system
// call); the kernel copies the program before the call returns.
func attachSteering(c *net.UDPConn, n int) error {
	prog := steerProgram(n)
	defer runtime.KeepAlive(prog)
	fprog := syscall.SockFprog{Len: uint16(len(prog)), Filter: &prog[0]}
	raw := unsafe.String((*byte)(unsafe.Pointer(&fprog)), unsafe.Sizeof(fprog))
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	return control(rc, func(fd int) error {
		return syscall.SetsockoptString(fd, syscall.SOL_SOCKET, soAttachReuseportCBPF, raw)
	})
}
