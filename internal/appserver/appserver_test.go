package appserver

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"edgeejb/internal/component"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
)

// newAppServer starts a full application server over a seeded store.
func newAppServer(t testing.TB) (*Server, *Client) { return startAppServer(t, 5) }

// startAppServer starts an application server over a store seeded with
// the given number of users, and a client connected to it.
func startAppServer(t testing.TB, users int) (*Server, *Client) {
	t.Helper()
	store := sqlstore.New()
	t.Cleanup(store.Close)
	trade.Populate(store, trade.PopulateConfig{Users: users, Symbols: 10, HoldingsPerUser: 2, OpenBalance: 10_000})
	reg, err := trade.NewEntityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	svc := trade.NewService(component.NewContainer(reg, component.NewJDBCManager(storeapi.Local(store))))
	srv := NewServer(svc)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	client := NewClient(srv.Addr())
	t.Cleanup(func() {
		_ = client.Close()
		srv.Close()
	})
	return srv, client
}

func TestDispatchAllActions(t *testing.T) {
	srv, client := newAppServer(t)
	ctx := context.Background()
	user := trade.UserID(0)

	steps := []trade.Step{
		{Action: trade.ActionLogin, UserID: user, SessionID: "s1"},
		{Action: trade.ActionHome, UserID: user},
		{Action: trade.ActionAccount, UserID: user},
		{Action: trade.ActionAccountUpdate, UserID: user, Address: "1 Edge Way", Email: "e@example.test"},
		{Action: trade.ActionPortfolio, UserID: user},
		{Action: trade.ActionQuote, UserID: user, Symbol: trade.SymbolID(1)},
		{Action: trade.ActionBuy, UserID: user, Symbol: trade.SymbolID(1), Quantity: 2},
		{Action: trade.ActionSell, UserID: user},
		{Action: trade.ActionRegister, UserID: user, NewUserID: "reg-1", FullName: "R U", Email: "r@example.test"},
		{Action: trade.ActionLogout, UserID: user},
	}
	for _, step := range steps {
		resp, err := client.DoStep(ctx, step)
		if err != nil {
			t.Fatalf("%s: transport: %v", step.Action, err)
		}
		if !resp.OK {
			t.Fatalf("%s: application error: %s", step.Action, resp.Err)
		}
		if len(resp.Body) == 0 {
			t.Fatalf("%s: empty page", step.Action)
		}
		if !strings.Contains(string(resp.Body), "<html>") {
			t.Fatalf("%s: response is not a page", step.Action)
		}
	}
	if srv.Requests() != uint64(len(steps)) {
		t.Errorf("requests = %d, want %d", srv.Requests(), len(steps))
	}
	if srv.Failures() != 0 {
		t.Errorf("failures = %d, want 0", srv.Failures())
	}
}

func TestPresentationPayloadSize(t *testing.T) {
	_, client := newAppServer(t)
	resp, err := client.Do(context.Background(), &Request{
		Action: "home",
		Params: map[string]string{"user": trade.UserID(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The presentation chrome is what makes Clients/RAS transmit
	// "more than 7000 bytes" per interaction (§4.4, Figure 8).
	if len(resp.Body) < 5000 {
		t.Errorf("page size = %d bytes; presentation chrome too small for the bandwidth experiment", len(resp.Body))
	}
	if len(resp.Body) > 20000 {
		t.Errorf("page size = %d bytes; unrealistically large", len(resp.Body))
	}
}

func TestApplicationErrorsAreResponses(t *testing.T) {
	srv, client := newAppServer(t)
	ctx := context.Background()

	resp, err := client.Do(ctx, &Request{Action: "home", Params: map[string]string{"user": "ghost"}})
	if err != nil {
		t.Fatalf("transport error for app failure: %v", err)
	}
	if resp.OK {
		t.Fatal("missing user reported OK")
	}
	if resp.Error() == nil {
		t.Fatal("Error() nil for failed response")
	}

	resp, err = client.Do(ctx, &Request{Action: "no-such-action"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("unknown action reported OK")
	}
	if srv.Failures() != 2 {
		t.Errorf("failures = %d, want 2", srv.Failures())
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	trade.Populate(store, trade.PopulateConfig{Users: 2, Symbols: 2, HoldingsPerUser: 1})
	reg, _ := trade.NewEntityRegistry()
	svc := trade.NewService(component.NewContainer(reg, component.NewJDBCManager(storeapi.Local(store))))

	srv := NewServer(svc)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	client := NewClient(addr)
	defer client.Close()
	ctx := context.Background()

	if _, err := client.Do(ctx, &Request{Action: "home", Params: map[string]string{"user": trade.UserID(0)}}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// First call after the drop fails with a transport error...
	if _, err := client.Do(ctx, &Request{Action: "home", Params: map[string]string{"user": trade.UserID(0)}}); err == nil {
		t.Fatal("expected transport error after server close")
	}
	// ...then a new server on the same address is reachable again.
	srv2 := NewServer(svc)
	if err := srv2.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if _, err := client.Do(ctx, &Request{Action: "home", Params: map[string]string{"user": trade.UserID(0)}}); err != nil {
		t.Fatalf("client did not redial: %v", err)
	}
}

func TestStepRequestParams(t *testing.T) {
	tests := []struct {
		name string
		give trade.Step
		want map[string]string
	}{
		{
			name: "quote",
			give: trade.Step{Action: trade.ActionQuote, UserID: "u", Symbol: "s-1"},
			want: map[string]string{"user": "u", "symbol": "s-1"},
		},
		{
			name: "buy",
			give: trade.Step{Action: trade.ActionBuy, UserID: "u", Symbol: "s-2", Quantity: 4},
			want: map[string]string{"user": "u", "symbol": "s-2", "quantity": "4"},
		},
		{
			name: "register",
			give: trade.Step{Action: trade.ActionRegister, UserID: "u", NewUserID: "n", FullName: "F", Email: "e"},
			want: map[string]string{"user": "u", "newUser": "n", "fullName": "F", "email": "e"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req, err := StepRequest(tt.give)
			if err != nil {
				t.Fatal(err)
			}
			if req.Action != tt.give.Action.String() {
				t.Errorf("action = %s", req.Action)
			}
			for k, v := range tt.want {
				if req.Params[k] != v {
					t.Errorf("param %s = %q, want %q", k, req.Params[k], v)
				}
			}
		})
	}
	if _, err := StepRequest(trade.Step{Action: trade.Action(99)}); err == nil {
		t.Error("unknown step action accepted")
	}
}

func TestMarketSummaryAction(t *testing.T) {
	_, client := newAppServer(t)
	resp, err := client.Do(context.Background(), &Request{
		Action: "marketSummary",
		Params: map[string]string{"n": "3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("marketSummary failed: %s", resp.Err)
	}
	if !strings.Contains(string(resp.Body), "Market Summary") {
		t.Error("summary page not rendered")
	}
	// Bad n falls back to the default instead of failing.
	resp, err = client.Do(context.Background(), &Request{
		Action: "marketSummary",
		Params: map[string]string{"n": "bogus"},
	})
	if err != nil || !resp.OK {
		t.Fatalf("bad n not tolerated: %v %+v", err, resp)
	}
}

// TestPooledPagesConcurrentRequests drives 16 concurrent callers, each
// for its own user, over one client connection. The server renders
// every page into a pooled buffer and returns it to the pool once the
// response frame is written; a buffer reused any earlier would carry
// another user's page (or race under -race). Each page must name its
// caller's user and nobody else.
func TestPooledPagesConcurrentRequests(t *testing.T) {
	const callers, rounds = 16, 40
	_, client := startAppServer(t, callers)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(user string) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				action := []trade.Action{trade.ActionHome, trade.ActionAccount, trade.ActionPortfolio}[r%3]
				resp, err := client.DoStep(ctx, trade.Step{Action: action, UserID: user})
				if err != nil {
					errs <- fmt.Errorf("%s %s: %v", user, action, err)
					return
				}
				if !resp.OK {
					errs <- fmt.Errorf("%s %s: %s", user, action, resp.Err)
					return
				}
				if err := pageUsers(resp.Body, user); err != nil {
					errs <- fmt.Errorf("%s %s: %v", user, action, err)
					return
				}
			}
		}(trade.UserID(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := client.WireStats().Dials; n != 1 {
		t.Errorf("client dialed %d connections, want 1", n)
	}
}

// pageUsers checks that every user ID on a page is want.
func pageUsers(body []byte, want string) error {
	ids := regexp.MustCompile(`uid-\d+`).FindAll(body, -1)
	if len(ids) == 0 {
		return fmt.Errorf("page names no user: %q", body)
	}
	for _, id := range ids {
		if string(id) != want {
			return fmt.Errorf("page names %s", id)
		}
	}
	return nil
}
