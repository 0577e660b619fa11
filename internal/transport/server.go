package transport

import "net"

// Server drives a StepServer over real connections with BSP semantics:
// every step it waits for a push from each connected worker, applies the
// update, and broadcasts the shared pull. It is the session engine's
// degenerate case — a one-shard ShardServer whose aggregator is any
// StepServer, serving v1 clients (Dial) with the v1 wire.
type Server struct{ ShardServer }

// NewServer wraps srv to serve `workers` workers for `steps` steps on ln.
func NewServer(ln net.Listener, srv StepServer, workers, steps int) *Server {
	return &Server{ShardServer{agg: srv, ln: ln,
		cfg: ShardServerConfig{NumShards: 1, Workers: workers, Steps: steps}}}
}

// SetTimeouts bounds every per-worker frame read and write in the step
// loop (call before Serve). A worker that dies mid-run then fails the
// step with a net.Error timeout instead of blocking the barrier forever.
// The read deadline must cover a full compute phase, not a round trip.
func (s *Server) SetTimeouts(to Timeouts) { s.cfg.Timeouts = to }
