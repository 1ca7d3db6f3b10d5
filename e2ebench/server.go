package main

import (
	"errors"
	"fmt"
	"net"

	"xnf/internal/engine"
	"xnf/internal/wire"
)

// server is a wire.Server over one database, listening on loopback.
type server struct {
	ln     net.Listener
	addr   string
	served chan error
}

func startServer(db *engine.Database) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{ln: ln, addr: ln.Addr().String(), served: make(chan error, 1)}
	srv := wire.NewServer(db)
	go func() { s.served <- srv.Serve(ln) }()
	return s, nil
}

// dial opens n client sessions.
func (s *server) dial(n int) ([]*wire.Client, error) {
	var cs []*wire.Client
	for i := 0; i < n; i++ {
		c, err := wire.Dial(s.addr)
		if err != nil {
			closeClients(cs)
			return nil, fmt.Errorf("dialing %s: %w", s.addr, err)
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// stop closes the listener and waits for the accept loop to return. It
// closes the listener itself rather than calling wire.Server.Close, which
// does nothing when it runs before Serve has recorded the listener, and
// would leave Serve accepting forever.
func (s *server) stop() error {
	err := s.ln.Close()
	if serr := <-s.served; serr != nil && !errors.Is(serr, net.ErrClosed) && err == nil {
		err = serr
	}
	return err
}

func closeClients(cs []*wire.Client) {
	for _, c := range cs {
		c.Close()
	}
}
