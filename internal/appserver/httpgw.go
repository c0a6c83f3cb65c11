package appserver

import (
	"net/http"
	"strings"

	"edgeejb/internal/trade"
)

// HTTPGateway adapts the trade service to real HTTP, so a browser (or
// curl) can drive an edge server directly — the paper's clients are web
// browsers talking to an HTTP server in front of the application server
// (Figures 3–5). The gateway serves:
//
//	GET /trade/{action}?user=...&symbol=...&quantity=...&n=...
//	GET /healthz
//
// Action names are the Table 1 names (login, logout, register, home,
// account, accountUpdate, portfolio, quote, buy, sell) plus the
// marketSummary extension. Responses are the same rendered pages the
// client protocol returns; application errors map to 422 and unknown
// actions to 404.
type HTTPGateway struct {
	srv *Server
	mux *http.ServeMux
}

var _ http.Handler = (*HTTPGateway)(nil)

// NewHTTPGateway wraps an application server's dispatch logic. The
// gateway shares the server's request/failure counters.
func NewHTTPGateway(srv *Server) *HTTPGateway {
	g := &HTTPGateway{srv: srv, mux: http.NewServeMux()}
	g.mux.HandleFunc("/healthz", g.handleHealth)
	g.mux.HandleFunc("/trade/", g.handleTrade)
	return g
}

// ServeHTTP implements http.Handler.
func (g *HTTPGateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

func (g *HTTPGateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (g *HTTPGateway) handleTrade(w http.ResponseWriter, r *http.Request) {
	action := strings.TrimPrefix(r.URL.Path, "/trade/")
	if action == "" || strings.Contains(action, "/") {
		http.NotFound(w, r)
		return
	}
	if _, err := trade.ParseAction(action); err != nil && action != "marketSummary" {
		http.NotFound(w, r)
		return
	}

	params := make(map[string]string)
	for key, vals := range r.URL.Query() {
		if len(vals) > 0 {
			params[key] = vals[0]
		}
	}
	sessionID := params["session"]
	if sessionID == "" {
		if c, err := r.Cookie("tradesession"); err == nil {
			sessionID = c.Value
		}
	}

	resp := g.srv.dispatch(r.Context(), &Request{
		SessionID: sessionID,
		Action:    action,
		Params:    params,
	})
	defer resp.Release()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if !resp.OK {
		w.WriteHeader(http.StatusUnprocessableEntity)
		p := renderError(resp.Err)
		_, _ = w.Write(p.b)
		p.release()
		return
	}
	_, _ = w.Write(resp.Body)
}

// htmlEscape escapes the handful of characters that matter in the error
// page body.
func htmlEscape(s string) string {
	r := strings.NewReplacer(
		"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&#39;",
	)
	return r.Replace(s)
}
