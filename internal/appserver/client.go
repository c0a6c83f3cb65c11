package appserver

import (
	"context"
	"errors"
	"fmt"
	"net"

	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// DialFunc opens a connection to an application server; the harness
// injects dialers that route through the delay proxy (Clients/RAS) or
// count bytes.
type DialFunc func(ctx context.Context, addr string) (net.Conn, error)

// Client is the web-browser stand-in: it sends trade requests to an
// application server and receives rendered pages. A client keeps one
// persistent connection, like a browser with HTTP keep-alive; a
// transport error invalidates it and the next call redials. There is
// deliberately no retry — a browser surfaces the failed page load.
type Client struct {
	w *wire.Client
}

// ClientOption configures a Client.
type ClientOption interface {
	apply(*clientConfig)
}

type clientConfig struct {
	wopts []wire.Option
}

type clientDialerOption DialFunc

func (d clientDialerOption) apply(cfg *clientConfig) {
	cfg.wopts = append(cfg.wopts, wire.WithDialer(wire.DialFunc(d)))
}

// WithDialer overrides how the client connects.
func WithDialer(d DialFunc) ClientOption { return clientDialerOption(d) }

// NewClient creates a client for the application server at addr.
func NewClient(addr string, opts ...ClientOption) *Client {
	cfg := &clientConfig{wopts: []wire.Option{wire.WithMaxConns(1), wire.WithBodyCodec(pageCodec)}}
	for _, o := range opts {
		o.apply(cfg)
	}
	return &Client{w: wire.NewClient(addr, cfg.wopts...)}
}

// WireStats returns the transport counters (bytes, round trips, per-op
// latency) for this client's connection.
func (c *Client) WireStats() wire.Stats { return c.w.Stats() }

// Close drops the client's connection.
func (c *Client) Close() error { return c.w.Close() }

// Do performs one interaction.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	resp := new(Response)
	if err := c.w.Call(ctx, req, resp); err != nil {
		return nil, fmt.Errorf("appserver: %w", err)
	}
	return resp, nil
}

// DoStep converts a workload step into a request and performs it.
func (c *Client) DoStep(ctx context.Context, step trade.Step) (*Response, error) {
	req, err := StepRequest(step)
	if err != nil {
		return nil, err
	}
	return c.Do(ctx, req)
}

// StepRequest converts a workload step into a protocol request.
func StepRequest(step trade.Step) (*Request, error) {
	params := map[string]string{"user": step.UserID}
	switch step.Action {
	case trade.ActionLogin, trade.ActionLogout, trade.ActionHome,
		trade.ActionAccount, trade.ActionPortfolio, trade.ActionSell:
		// user only
	case trade.ActionAccountUpdate:
		params["address"] = step.Address
		params["email"] = step.Email
	case trade.ActionQuote:
		params["symbol"] = step.Symbol
	case trade.ActionBuy:
		params["symbol"] = step.Symbol
		params["quantity"] = fmt.Sprintf("%g", step.Quantity)
	case trade.ActionRegister:
		params["newUser"] = step.NewUserID
		params["fullName"] = step.FullName
		params["email"] = step.Email
	default:
		return nil, errors.New("appserver: unknown step action")
	}
	return &Request{
		SessionID: step.SessionID,
		Action:    step.Action.String(),
		Params:    params,
	}, nil
}
