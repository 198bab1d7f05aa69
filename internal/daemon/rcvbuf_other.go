//go:build !unix

package daemon

import "net"

// sizeReadBuffer asks for a want-byte socket receive buffer; where the
// granted size cannot be read back it reports 0.
func sizeReadBuffer(c *net.UDPConn, want int) (int, error) {
	return 0, c.SetReadBuffer(want)
}
