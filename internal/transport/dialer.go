// Connection-establishment hooks: every dial and listen point in the
// transport tier is pluggable, which is how the chaos layer
// (internal/chaos) interposes its fault-injecting wrappers without the
// tier knowing — and how tests, TLS shims, or metrics taps would.
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

// ListenWrapper decorates a listener before a server tier consumes it,
// so every accepted connection passes through the wrapper (fault
// injection, TLS, accounting). chaos.Injector.WrapListener satisfies the
// signature. A nil wrapper is the identity.
type ListenWrapper func(net.Listener) net.Listener

// Wrap applies the hook, defaulting to the identity.
func (w ListenWrapper) Wrap(ln net.Listener) net.Listener {
	if w == nil {
		return ln
	}
	return w(ln)
}
