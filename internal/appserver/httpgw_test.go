package appserver

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"edgeejb/internal/trade"
)

func newGateway(t *testing.T) *httptest.Server {
	t.Helper()
	srv, _ := newAppServer(t) // the TCP listener is unused here
	gw := httptest.NewServer(NewHTTPGateway(srv))
	t.Cleanup(gw.Close)
	return gw
}

func get(t *testing.T, gw *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(gw.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHTTPGatewayHealth(t *testing.T) {
	gw := newGateway(t)
	code, body := get(t, gw, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
}

func TestHTTPGatewayFullSession(t *testing.T) {
	gw := newGateway(t)
	user := url.QueryEscape(trade.UserID(0))

	paths := []string{
		"/trade/login?user=" + user + "&session=http-1",
		"/trade/home?user=" + user,
		"/trade/quote?user=" + user + "&symbol=" + url.QueryEscape(trade.SymbolID(1)),
		"/trade/portfolio?user=" + user,
		"/trade/buy?user=" + user + "&symbol=" + url.QueryEscape(trade.SymbolID(1)) + "&quantity=2",
		"/trade/sell?user=" + user,
		"/trade/marketSummary?n=3",
		"/trade/logout?user=" + user,
	}
	for _, path := range paths {
		code, body := get(t, gw, path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d body %q", path, code, body)
		}
		if !strings.Contains(body, "<html>") {
			t.Fatalf("%s: not a page", path)
		}
	}
}

func TestHTTPGatewayErrors(t *testing.T) {
	gw := newGateway(t)

	// Unknown action -> 404.
	if code, _ := get(t, gw, "/trade/no-such-action"); code != http.StatusNotFound {
		t.Errorf("unknown action status = %d, want 404", code)
	}
	// Nested path -> 404.
	if code, _ := get(t, gw, "/trade/home/extra"); code != http.StatusNotFound {
		t.Errorf("nested path status = %d, want 404", code)
	}
	// Application failure -> 422 with an escaped error page.
	code, body := get(t, gw, "/trade/home?user=<ghost>")
	if code != http.StatusUnprocessableEntity {
		t.Errorf("app failure status = %d, want 422", code)
	}
	if strings.Contains(body, "<ghost>") {
		t.Error("error page did not escape user input")
	}
	if !strings.Contains(body, "&lt;ghost&gt;") {
		t.Errorf("escaped user id missing from error page:\n%s", body)
	}
}

func TestHTTPGatewaySessionCookie(t *testing.T) {
	gw := newGateway(t)
	user := url.QueryEscape(trade.UserID(1))

	req, err := http.NewRequest(http.MethodGet, gw.URL+"/trade/login?user="+user, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.AddCookie(&http.Cookie{Name: "tradesession", Value: "cookie-sess"})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "cookie-sess") {
		t.Error("session cookie not used as the session id")
	}
}
