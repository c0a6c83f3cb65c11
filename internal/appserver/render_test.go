package appserver

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"edgeejb/internal/trade"
)

// The ref* functions are the strings.Builder renderer that the pooled
// one replaced, kept as the reference its output must match byte for
// byte: Figure 8's Clients/RAS bytes are these pages.

func refRenderPage(title, body string) []byte {
	var sb strings.Builder
	sb.Grow(len(pageChrome) + len(body) + len(pageFooter) + 64)
	sb.WriteString(pageChrome)
	fmt.Fprintf(&sb, "<h1>%s</h1>\n", title)
	sb.WriteString(body)
	sb.WriteString(pageFooter)
	return []byte(sb.String())
}

func refRenderLogin(r trade.LoginResult) []byte {
	return refRenderPage("Welcome back", fmt.Sprintf(
		"<p>User %s logged in (session %s).</p><p>Logins: %d. Cash balance: $%.2f.</p>",
		r.UserID, r.SessionID, r.LoginCount, r.Balance))
}

func refRenderLogout(user string) []byte {
	return refRenderPage("Goodbye", fmt.Sprintf("<p>User %s logged off.</p>", user))
}

func refRenderRegister(user string) []byte {
	return refRenderPage("Registration complete", fmt.Sprintf(
		"<p>Created account, profile and registry entry for %s.</p>", user))
}

func refRenderHome(r trade.HomeResult) []byte {
	return refRenderPage("Trade Home", fmt.Sprintf(
		"<p>Welcome %s.</p><table class=\"panel-01\"><tr><td>Cash balance</td><td>$%.2f</td></tr>"+
			"<tr><td>Opening balance</td><td>$%.2f</td></tr></table>",
		r.UserID, r.Balance, r.Open))
}

func refRenderAccount(r trade.AccountResult) []byte {
	return refRenderPage("Account Information", fmt.Sprintf(
		"<table class=\"panel-02\"><tr><td>User</td><td>%s</td></tr><tr><td>Name</td><td>%s</td></tr>"+
			"<tr><td>Address</td><td>%s</td></tr><tr><td>Email</td><td>%s</td></tr></table>",
		r.UserID, r.FullName, r.Address, r.Email))
}

func refRenderAccountUpdate(user string) []byte {
	return refRenderPage("Account Updated", fmt.Sprintf("<p>Profile for %s updated.</p>", user))
}

func refRenderPortfolio(r trade.PortfolioResult) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<p>%d holdings for %s.</p><table class=\"panel-03\">"+
		"<tr><th>Holding</th><th>Symbol</th><th>Qty</th><th>Price</th><th>Date</th></tr>",
		len(r.Holdings), r.UserID)
	for _, h := range r.Holdings {
		fmt.Fprintf(&sb, "<tr><td>%s</td><td>%s</td><td>%.0f</td><td>$%.2f</td><td>%s</td></tr>",
			h.HoldingID, h.Symbol, h.Quantity, h.PurchasePrice, h.PurchaseDate)
	}
	sb.WriteString("</table>")
	return refRenderPage("Portfolio", sb.String())
}

func refRenderMarketSummary(r trade.MarketSummaryResult) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<p>Market summary (volume %.0f).</p><table class=\"panel-05\">"+
		"<tr><th>Symbol</th><th>Company</th><th>Price</th></tr>", r.Volume)
	for _, q := range r.Top {
		fmt.Fprintf(&sb, "<tr><td>%s</td><td>%s</td><td>$%.2f</td></tr>", q.Symbol, q.Company, q.Price)
	}
	sb.WriteString("</table>")
	return refRenderPage("Market Summary", sb.String())
}

func refRenderQuote(r trade.QuoteResult) []byte {
	return refRenderPage("Quote", fmt.Sprintf(
		"<table class=\"panel-04\"><tr><td>Symbol</td><td>%s</td></tr>"+
			"<tr><td>Price</td><td>$%.2f</td></tr></table>", r.Symbol, r.Price))
}

func refRenderBuy(r trade.BuyResult) []byte {
	return refRenderPage("Buy Order Confirmation", fmt.Sprintf(
		"<p>Bought %.0f %s @ $%.2f (total $%.2f). Holding %s. New balance $%.2f.</p>",
		r.Quantity, r.Symbol, r.Price, r.Total, r.HoldingID, r.Balance))
}

func refRenderSell(r trade.SellResult) []byte {
	if !r.Sold {
		return refRenderPage("Sell Order", "<p>No holdings to sell.</p>")
	}
	return refRenderPage("Sell Order Confirmation", fmt.Sprintf(
		"<p>Sold %.0f %s @ $%.2f (proceeds $%.2f). Holding %s closed. New balance $%.2f.</p>",
		r.Quantity, r.Symbol, r.Price, r.Proceeds, r.HoldingID, r.Balance))
}

func refRenderError(msg string) []byte {
	return refRenderPage("Error", "<p>"+htmlEscape(msg)+"</p>")
}

// TestRenderMatchesReference renders every page kind over ordinary and
// awkward values (format verbs in strings, markup, non-ASCII, negative,
// huge, NaN and infinite numbers, empty lists) and requires the pooled
// renderer's bytes to equal the reference renderer's. Each page is
// rendered twice, the second time into a buffer the first one released,
// so stale bytes from a reused buffer would show.
func TestRenderMatchesReference(t *testing.T) {
	strs := []string{"uid-7", "", "%s %d %!", "<b>&\"'</b>", "Zürich — 東京"}
	nums := []float64{0, 1234.5678, -17.005, 1e21, math.NaN(), math.Inf(1), math.Inf(-1)}
	holdings := func(n int) []trade.Holding {
		hs := make([]trade.Holding, n)
		for i := range hs {
			hs[i] = trade.Holding{
				HoldingID: fmt.Sprintf("h-%d", i), Symbol: strs[i%len(strs)],
				Quantity: nums[i%len(nums)], PurchasePrice: nums[(i+1)%len(nums)],
				PurchaseDate: "2004-10-18",
			}
		}
		return hs
	}
	quotes := func(n int) []trade.Quote {
		qs := make([]trade.Quote, n)
		for i := range qs {
			qs[i] = trade.Quote{Symbol: strs[i%len(strs)], Company: strs[(i+2)%len(strs)], Price: nums[i%len(nums)]}
		}
		return qs
	}

	type pair struct {
		name string
		got  func() *page
		want []byte
	}
	var cases []pair
	add := func(name string, got func() *page, want []byte) {
		cases = append(cases, pair{name, got, want})
	}
	for i, s := range strs {
		x, y := nums[i%len(nums)], nums[(i+3)%len(nums)]
		login := trade.LoginResult{UserID: s, SessionID: strs[(i+1)%len(strs)], LoginCount: int64(i * 1000), Balance: x}
		add("login", func() *page { return renderLogin(login) }, refRenderLogin(login))
		add("logout", func() *page { return renderLogout(s) }, refRenderLogout(s))
		add("register", func() *page { return renderRegister(s) }, refRenderRegister(s))
		home := trade.HomeResult{UserID: s, Balance: x, Open: y}
		add("home", func() *page { return renderHome(home) }, refRenderHome(home))
		acct := trade.AccountResult{UserID: s, FullName: strs[(i+1)%len(strs)], Address: strs[(i+2)%len(strs)], Email: strs[(i+3)%len(strs)]}
		add("account", func() *page { return renderAccount(acct) }, refRenderAccount(acct))
		add("accountUpdate", func() *page { return renderAccountUpdate(s) }, refRenderAccountUpdate(s))
		port := trade.PortfolioResult{UserID: s, Holdings: holdings(i * 7)}
		add("portfolio", func() *page { return renderPortfolio(port) }, refRenderPortfolio(port))
		ms := trade.MarketSummaryResult{Volume: y, Top: quotes(i * 2)}
		add("marketSummary", func() *page { return renderMarketSummary(ms) }, refRenderMarketSummary(ms))
		q := trade.QuoteResult{Symbol: s, Price: x}
		add("quote", func() *page { return renderQuote(q) }, refRenderQuote(q))
		buy := trade.BuyResult{Symbol: s, HoldingID: strs[(i+1)%len(strs)], Quantity: y, Price: x, Total: x * y, Balance: -x}
		add("buy", func() *page { return renderBuy(buy) }, refRenderBuy(buy))
		for _, sold := range []bool{false, true} {
			sell := trade.SellResult{Sold: sold, Symbol: s, HoldingID: strs[(i+1)%len(strs)], Quantity: y, Price: x, Proceeds: x * y, Balance: y}
			add("sell", func() *page { return renderSell(sell) }, refRenderSell(sell))
		}
		add("error", func() *page { return renderError(s) }, refRenderError(s))
	}
	for _, c := range cases {
		for round := 0; round < 2; round++ {
			p := c.got()
			if string(p.b) != string(c.want) {
				t.Fatalf("%s (round %d): page differs from the reference\n got %q\nwant %q", c.name, round, p.b, c.want)
			}
			p.release()
		}
	}
}
