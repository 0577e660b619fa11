// The connection-establishment hook: every dial in the transport tier is
// pluggable, which is how the chaos layer (internal/chaos) interposes its
// fault-injecting connections without the tier knowing — and how tests,
// TLS shims, or metrics taps would. A server tier takes a net.Listener, so
// its side needs no hook: wrap the listener before handing it over.
package transport

import "net"

// Dialer opens one transport connection to addr. A nil Dialer means
// net.Dial("tcp", addr). ShardClientConfig.Dialer and DialTimeoutDialer
// (the v1 client) accept one; chaos.Injector.Dial satisfies the signature.
type Dialer func(addr string) (net.Conn, error)

// dial applies the hook, defaulting to plain TCP.
func (d Dialer) dial(addr string) (net.Conn, error) {
	if d == nil {
		return net.Dial("tcp", addr)
	}
	return d(addr)
}
