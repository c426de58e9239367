package main

import (
	"context"
	"fmt"

	"mlds/client"
	"mlds/internal/core"
	"mlds/internal/server"
)

// remote-mix: the serving tier. A server on loopback over an in-memory
// 2-backend system; two TCP connections carry 64 multiplexed sessions over
// all five languages; the closed-loop client spreads its ops over the
// sessions of both connections. See README.md.
const (
	remoteSessions = 64
	remoteConns    = 2
	remoteBackends = 2 // the mldsserver default
)

var (
	remoteShape = shape{univ: univConfig, depts: 20, courses: 10, emp: 20_000, owners: clients, perScan: 40}
	remoteMixW  = mix{weight: [nKinds]int{
		kSQLRead: 200, kSQLScan: 100, kSQLWrite: 100,
		kDaplex: 150, kDML: 150, kDLI: 150, kABDL: 150,
	}}
)

// tier is a system behind a server, with the client sessions over it.
type tier struct {
	sys      *core.System
	srv      *server.Server
	conns    []*client.Client
	sessions []*client.Session
}

// openTier serves sys and opens remoteSessions sessions, round-robin over
// the languages and the connections.
func openTier(sys *core.System) (*tier, error) {
	t := &tier{sys: sys}
	var err error
	if t.srv, err = server.Listen("127.0.0.1:0", sys, server.Config{}); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i := 0; i < remoteConns; i++ {
		c, err := client.Dial(ctx, t.srv.Addr())
		if err != nil {
			t.close()
			return nil, err
		}
		t.conns = append(t.conns, c)
	}
	for i := 0; i < remoteSessions; i++ {
		lang := langs[i%len(langs)]
		s, err := t.conns[i%remoteConns].Open(ctx, langDB(lang), lang)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("open session %d (%s): %w", i, lang, err)
		}
		t.sessions = append(t.sessions, s)
	}
	return t, nil
}

func langDB(lang string) string {
	for k := kind(0); k < nKinds; k++ {
		if kindLang[k] == lang {
			return kindDB[k]
		}
	}
	return ""
}

// target makes the tier a closed-loop target: connection i's sessions go
// to client i mod clients.
func (t *tier) target() *target {
	return &target{
		sys: t.sys,
		clients: func(seed int64, m mix, sh shape, traced bool) ([]*closedClient, func(), error) {
			var cs []*closedClient
			for id := 0; id < clients; id++ {
				c := newClient(id, seed, m, sh, traced)
				for i, s := range t.sessions {
					if i%remoteConns%clients == id {
						l := langs[i%len(langs)]
						c.sess[l] = append(c.sess[l], s)
					}
				}
				cs = append(cs, c)
			}
			return cs, func() {}, nil
		},
		closeSessions: t.closeSessions,
		close:         t.close,
	}
}

// closeSessions closes every session, each Close waiting for the server's
// acknowledgement, and returns how many sessions the server still counts
// as live right after the last acknowledgement.
func (t *tier) closeSessions() int {
	for _, s := range t.sessions {
		s.Close()
	}
	t.sessions = nil
	return t.srv.Sessions()
}

func (t *tier) close() {
	t.closeSessions()
	for _, c := range t.conns {
		c.Close()
	}
	if t.srv != nil {
		t.srv.Close()
	}
	t.sys.Close()
}

func remoteMix(o opts) (*result, error) {
	return closedWorkload(o, func(tracing bool) (*target, error) {
		sys, err := buildMem(remoteBackends, tracing, remoteShape, o.seed)
		if err != nil {
			return nil, err
		}
		t, err := openTier(sys)
		if err != nil {
			sys.Close()
			return nil, err
		}
		return t.target(), nil
	}, remoteMixW, remoteShape, remoteBackends, serveOne)
}

// serveOne puts a restored system behind a fresh server and opens one SQL
// session on it through a fresh connection.
func serveOne(sys *core.System) (session, func(), error) {
	srv, err := server.Listen("127.0.0.1:0", sys, server.Config{})
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	c, err := client.Dial(ctx, srv.Addr())
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	s, err := c.Open(ctx, "shop", "sql")
	if err != nil {
		c.Close()
		srv.Close()
		return nil, nil, err
	}
	return s, func() { s.Close(); c.Close(); srv.Close() }, nil
}
