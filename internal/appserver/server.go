package appserver

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"

	"edgeejb/internal/obs"
	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// Process-wide obs mirrors of request outcomes, summed across every
// Server in the process. Names are documented in OBSERVABILITY.md.
var (
	obsRequests = obs.Default.Counter("appserver.requests")
	obsFailures = obs.Default.Counter("appserver.failures")
)

// Server hosts the trade application over the client protocol. One
// instance stands in for an "HTTP server + application server" box in
// Figures 3–5; the harness deploys it as an edge server or as the
// remote application server depending on the architecture. Framing,
// accept loops, and graceful drain live in the shared transport
// (package wire).
type Server struct {
	svc   *trade.Service
	inner *wire.Server

	requests atomic.Uint64
	failures atomic.Uint64
}

// NewServer wraps a trade service.
func NewServer(svc *trade.Service) *Server {
	s := &Server{svc: svc}
	s.inner = wire.NewServer(func() wire.ConnHandler { return appHandler{s: s} },
		wire.WithServerBodyCodec(pageCodec))
	return s
}

// Requests returns the number of requests served.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// Failures returns the number of requests that returned an error.
func (s *Server) Failures() uint64 { return s.failures.Load() }

// WireStats returns the server-side transport counters.
func (s *Server) WireStats() wire.Stats { return s.inner.Stats() }

// Start listens on addr and serves in the background until Close.
func (s *Server) Start(addr string) error { return s.inner.Start(addr) }

// Addr returns the listen address. It panics if Start has not been
// called.
func (s *Server) Addr() string { return s.inner.Addr() }

// Close drains in-flight requests, then tears down connections.
func (s *Server) Close() { s.inner.Close() }

// appHandler adapts the stateless dispatch to the transport's
// per-connection handler shape.
type appHandler struct {
	s *Server
}

func (h appHandler) NewRequest() any { return new(Request) }

func (h appHandler) Handle(ctx context.Context, _ *wire.Session, _ uint64, req any) any {
	return h.s.dispatch(ctx, req.(*Request))
}

func (h appHandler) Close() {}

// dispatch maps one request to the trade service.
func (s *Server) dispatch(ctx context.Context, req *Request) *Response {
	s.requests.Add(1)
	obsRequests.Inc()
	ctx, sp := obs.StartSpan(ctx, "edge.request")
	defer sp.End()
	// Label downstream forensic events (conflicts, in particular) with
	// the trade action, so conflict matrices break down by interaction.
	ctx = obs.WithOp(ctx, req.Action)
	fail := func(err error) *Response {
		s.failures.Add(1)
		obsFailures.Inc()
		return &Response{Err: err.Error()}
	}
	p := func(k string) string { return req.Params[k] }

	// Extension action (not part of Table 1's mix): market summary.
	if req.Action == "marketSummary" {
		n, err := strconv.Atoi(p("n"))
		if err != nil || n < 1 {
			n = 5
		}
		r, err := s.svc.MarketSummary(ctx, n)
		if err != nil {
			return fail(err)
		}
		return pageResponse(renderMarketSummary(r))
	}

	action, err := trade.ParseAction(req.Action)
	if err != nil {
		return fail(err)
	}
	switch action {
	case trade.ActionLogin:
		r, err := s.svc.Login(ctx, p("user"), req.SessionID)
		if err != nil {
			return fail(err)
		}
		return pageResponse(renderLogin(r))

	case trade.ActionLogout:
		if err := s.svc.Logout(ctx, p("user")); err != nil {
			return fail(err)
		}
		return pageResponse(renderLogout(p("user")))

	case trade.ActionRegister:
		if err := s.svc.Register(ctx, p("newUser"), p("fullName"), p("email"), 1_000_000); err != nil {
			return fail(err)
		}
		return pageResponse(renderRegister(p("newUser")))

	case trade.ActionHome:
		r, err := s.svc.Home(ctx, p("user"))
		if err != nil {
			return fail(err)
		}
		return pageResponse(renderHome(r))

	case trade.ActionAccount:
		r, err := s.svc.Account(ctx, p("user"))
		if err != nil {
			return fail(err)
		}
		return pageResponse(renderAccount(r))

	case trade.ActionAccountUpdate:
		if err := s.svc.AccountUpdate(ctx, p("user"), p("address"), p("email")); err != nil {
			return fail(err)
		}
		return pageResponse(renderAccountUpdate(p("user")))

	case trade.ActionPortfolio:
		r, err := s.svc.Portfolio(ctx, p("user"))
		if err != nil {
			return fail(err)
		}
		return pageResponse(renderPortfolio(r))

	case trade.ActionQuote:
		r, err := s.svc.GetQuote(ctx, p("symbol"))
		if err != nil {
			return fail(err)
		}
		return pageResponse(renderQuote(r))

	case trade.ActionBuy:
		qty, err := strconv.ParseFloat(p("quantity"), 64)
		if err != nil || qty <= 0 {
			qty = 1
		}
		r, err := s.svc.Buy(ctx, p("user"), p("symbol"), qty)
		if err != nil {
			return fail(err)
		}
		return pageResponse(renderBuy(r))

	case trade.ActionSell:
		r, err := s.svc.Sell(ctx, p("user"))
		if err != nil {
			return fail(err)
		}
		return pageResponse(renderSell(r))

	default:
		return fail(errors.New("appserver: unhandled action " + req.Action))
	}
}
