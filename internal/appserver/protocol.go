package appserver

import "fmt"

// Request is one client interaction: a trade action plus parameters.
type Request struct {
	// SessionID is the client's HTTP-session equivalent.
	SessionID string
	// Action is the trade action name (trade.Action.String()).
	Action string
	// Params carries the action's form fields.
	Params map[string]string
}

// WireLabel names the request's action for per-op transport stats.
func (r *Request) WireLabel() string { return r.Action }

// Response is the rendered result of one interaction.
type Response struct {
	// OK is false when the action failed; Err carries the message.
	OK  bool
	Err string
	// Body is the rendered HTML page.
	Body []byte

	// page, on the server side, is the pooled buffer Body lives in.
	page *page
}

// pageResponse wraps a rendered page as a successful response that owns
// the page's buffer until Release.
func pageResponse(p *page) *Response { return &Response{OK: true, Body: p.b, page: p} }

// Release returns a server-rendered page's buffer to the pool and
// clears Body. The transport calls it once the response frame is
// written; on a response without a pooled page it does nothing.
func (r *Response) Release() {
	if r.page != nil {
		r.page.release()
		r.page, r.Body = nil, nil
	}
}

// Error materializes a failed response as an error.
func (r *Response) Error() error {
	if r.OK {
		return nil
	}
	return fmt.Errorf("appserver: %s", r.Err)
}
