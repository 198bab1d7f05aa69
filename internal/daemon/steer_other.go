//go:build unix && !linux

package daemon

import "net"

// listen binds one UDP socket to addr whatever n asks for: steering a
// socket group by connection ID needs Linux, so other systems serve
// every connection on one shard.
func listen(addr string, _ int) ([]*net.UDPConn, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	return []*net.UDPConn{pc.(*net.UDPConn)}, nil
}
