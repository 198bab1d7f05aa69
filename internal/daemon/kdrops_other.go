//go:build !linux || 386

package daemon

import "net"

// kernelDrops reports 0: the kernel's per-socket drop count is read
// only on Linux (linux/386 lacks a direct getsockopt system call).
func kernelDrops(*net.UDPConn) int64 { return 0 }
