// MuxShardServer: one shard's multi-tenant transport endpoint. Where
// ShardServer serves exactly one job, the mux fronts one shard of a
// shared shard.Service: every admitted tenant's workers connect to the
// SAME listener, are routed by the tenant identity their hello carries
// (FlagTenant extension; an untagged hello addresses the default
// tenant) to that tenant's session, and each fully seated session runs
// on its own goroutine against the tenant's shard.Port — so jobs step
// independently while the shard's DRR scheduler multiplexes their decode
// work underneath.
//
// Session lifecycle: a tenant's session starts when Port.Workers()
// connections have handshaked; it runs push/pull steps until its
// workers close their connections (EOF at a step boundary), which is
// the job-complete signal — tenants need no pre-agreed step count.
// Tenant identity is validated against the service registry at hello
// time (unknown tenants and stale epochs are rejected) and against the
// session's wire identity on every subsequent frame.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"threelc/internal/shard"
	"threelc/internal/tenant"
)

// MuxShardServerConfig sizes one shard's multi-tenant endpoint.
type MuxShardServerConfig struct {
	// Shard is this endpoint's shard id within the service tier.
	Shard int
	// Tenants is how many tenant sessions Serve hosts before returning.
	// Zero means 1.
	Tenants int
	// Timeouts bounds each frame read and write, exactly as for
	// ShardServer.
	Timeouts Timeouts
}

// MuxShardServer serves one shard of a multi-tenant shard.Service on a
// listener shared by every tenant's workers.
type MuxShardServer struct {
	traffic
	svc *shard.Service
	cfg MuxShardServerConfig
	ln  net.Listener
}

// NewMuxShardServer wraps svc's shard cfg.Shard to serve cfg.Tenants
// tenant sessions on ln.
func NewMuxShardServer(ln net.Listener, svc *shard.Service, cfg MuxShardServerConfig) *MuxShardServer {
	if cfg.Tenants < 1 {
		cfg.Tenants = 1
	}
	return &MuxShardServer{svc: svc, cfg: cfg, ln: ln}
}

// portAgg drives one tenant's lane (a shard.Port) as a session's
// StepServer. The port addresses steps by wire number, counted here; a
// refused Begin (step quota, saturated lane) fails the step's pushes.
type portAgg struct {
	port *shard.Port
	step int
	err  error
}

func (p *portAgg) BeginStep() {
	p.err = p.port.Begin(p.step)
	p.step++
}

func (p *portAgg) AddPush(worker int, wires [][]byte) (time.Duration, error) {
	if p.err != nil {
		return 0, p.err
	}
	if err := p.port.Push(worker, wires); err != nil {
		return 0, err
	}
	return 0, p.port.EndPush(worker)
}

func (p *portAgg) FinishStep() ([][]byte, time.Duration, error) {
	if p.err != nil {
		return nil, 0, p.err
	}
	return p.port.Finish()
}

// Serve accepts connections, routes each to its tenant's session, and
// runs every fully seated session on its own goroutine until its workers
// disconnect. It returns once cfg.Tenants sessions have finished — or
// the listener fails, after the running ones finish — with their errors
// joined.
func (s *MuxShardServer) Serve() error {
	forming := make(map[tenant.ID]*session)
	errs := make([]error, s.cfg.Tenants+1)
	var wg sync.WaitGroup
	for launched := 0; launched < s.cfg.Tenants; {
		st, hash, err := acceptSeat(s.ln, s.cfg.Timeouts)
		if errors.Is(err, errListener) {
			errs[s.cfg.Tenants] = err
			for _, g := range forming {
				g.close()
			}
			break
		}
		if err != nil {
			// A malformed connection is that peer's problem, not the
			// tier's: keep serving the tenants.
			continue
		}
		id := tenant.ID(st.fc.tenant)
		g, err := s.route(forming[id], st, hash)
		if err != nil {
			st.c.Close() // so is an unauthorized or misaddressed one
			continue
		}
		forming[id] = g
		g.seats[st.id] = st
		full := true
		for _, other := range g.seats {
			full = full && other != nil
		}
		if !full {
			continue
		}
		delete(forming, id)
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			errs[slot] = g.run()
			g.close()
		}(launched)
		launched++
	}
	wg.Wait()
	return errors.Join(errs...)
}

// route resolves a handshaked connection's tenant identity in the
// service registry (untagged = default tenant, epoch unchecked — the
// pre-multi-tenant compatibility contract) and admits it to g, that
// tenant's forming session — created here, with the hello's wire
// identity as the one every member and every later frame must carry,
// when the connection is the tenant's first.
func (s *MuxShardServer) route(g *session, st *seat, hash uint32) (*session, error) {
	id := tenant.ID(st.fc.tenant)
	if st.fc.tenant != 0 || st.fc.epoch != 0 {
		if _, err := s.svc.Registry().Check(id, tenant.Epoch(st.fc.epoch)); err != nil {
			return nil, err
		}
	} else if _, err := s.svc.Registry().Get(tenant.Default); err != nil {
		return nil, err
	}
	if g == nil {
		port, ok := s.svc.Port(id, s.cfg.Shard)
		if !ok {
			return nil, fmt.Errorf("transport: mux shard %d: tenant %d has no job on this tier", s.cfg.Shard, id)
		}
		g = newSession(&portAgg{port: port}, ShardServerConfig{
			Shard:          s.cfg.Shard,
			NumShards:      s.svc.NumShards(),
			Workers:        port.Workers(),
			Steps:          -1,
			AssignmentHash: port.Hash(),
			Timeouts:       s.cfg.Timeouts,
			Tenant:         st.fc.tenant,
			Epoch:          st.fc.epoch,
		}, nil, &s.traffic)
	}
	if err := g.cfg.admit(&st.fc, hash); err != nil {
		return nil, err
	}
	if g.seats[st.id] != nil {
		return nil, fmt.Errorf("transport: tenant %d: duplicate worker id %d", id, st.id)
	}
	return g, nil
}
