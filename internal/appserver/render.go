package appserver

import (
	"fmt"
	"strings"
	"sync"

	"edgeejb/internal/trade"
)

// pageChrome is the presentation portion shared by every page: markup,
// styles and scripts a brokerage front-end would ship with each
// response. Its size is what separates the Clients/RAS bandwidth curve
// from the edge architectures in Figure 8, so it is deliberately sized
// like a real (2004-era) page: about 6 KB.
var pageChrome = buildChrome()

func buildChrome() string {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html><html><head><title>Trade - Online Brokerage</title>\n")
	sb.WriteString("<style>\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, ".panel-%02d { border: 1px solid #003366; padding: 4px; margin: 2px; "+
			"font-family: Verdana, Arial, sans-serif; font-size: 11px; color: #00%02x66; }\n", i, i*4)
	}
	sb.WriteString("</style>\n<script>\n")
	for i := 0; i < 25; i++ {
		fmt.Fprintf(&sb, "function nav_%02d(t) { document.location = '/trade/action?dest=' + t + '&panel=%02d'; }\n", i, i)
	}
	sb.WriteString("</script>\n</head><body>\n")
	sb.WriteString("<table width=\"100%\" class=\"panel-00\"><tr>")
	for _, item := range []string{
		"Home", "Account", "Portfolio", "Quotes/Trade", "Logoff",
		"Market Summary", "Glossary", "Help", "Contact",
	} {
		fmt.Fprintf(&sb, "<td><a href=\"#\" onclick=\"nav_00('%s')\">%s</a></td>", item, item)
	}
	sb.WriteString("</tr></table>\n")
	return sb.String()
}

const pageFooter = "<hr><i>Trade benchmark application &mdash; edge-server architecture evaluation.</i></body></html>\n"

// maxPooledPage bounds the pages kept for reuse, so one unusually long
// portfolio does not pin its buffer in the pool.
const maxPooledPage = 64 << 10

// page is one rendered page in a buffer taken from pagePool. It stays
// owned by its Response until Release hands it back.
type page struct{ b []byte }

var pagePool = sync.Pool{New: func() any {
	return &page{b: make([]byte, 0, len(pageChrome)+len(pageFooter)+1024)}
}}

// startPage takes a buffer from the pool and writes the chrome and the
// title heading into it; the caller appends the body fragment and calls
// end.
func startPage(title string) *page {
	p := pagePool.Get().(*page)
	p.b = append(p.b[:0], pageChrome...)
	p.b = append(p.b, "<h1>"...)
	p.b = append(p.b, title...)
	p.b = append(p.b, "</h1>\n"...)
	return p
}

func (p *page) printf(format string, args ...any) { p.b = fmt.Appendf(p.b, format, args...) }

func (p *page) end() *page {
	p.b = append(p.b, pageFooter...)
	return p
}

func (p *page) release() {
	if cap(p.b) <= maxPooledPage {
		pagePool.Put(p)
	}
}

// renderf renders a page whose body fragment is one formatted string.
func renderf(title, format string, args ...any) *page {
	p := startPage(title)
	p.printf(format, args...)
	return p.end()
}

func renderError(msg string) *page { return renderf("Error", "<p>%s</p>", htmlEscape(msg)) }

func renderLogin(r trade.LoginResult) *page {
	return renderf("Welcome back",
		"<p>User %s logged in (session %s).</p><p>Logins: %d. Cash balance: $%.2f.</p>",
		r.UserID, r.SessionID, r.LoginCount, r.Balance)
}

func renderLogout(user string) *page {
	return renderf("Goodbye", "<p>User %s logged off.</p>", user)
}

func renderRegister(user string) *page {
	return renderf("Registration complete",
		"<p>Created account, profile and registry entry for %s.</p>", user)
}

func renderHome(r trade.HomeResult) *page {
	return renderf("Trade Home",
		"<p>Welcome %s.</p><table class=\"panel-01\"><tr><td>Cash balance</td><td>$%.2f</td></tr>"+
			"<tr><td>Opening balance</td><td>$%.2f</td></tr></table>",
		r.UserID, r.Balance, r.Open)
}

func renderAccount(r trade.AccountResult) *page {
	return renderf("Account Information",
		"<table class=\"panel-02\"><tr><td>User</td><td>%s</td></tr><tr><td>Name</td><td>%s</td></tr>"+
			"<tr><td>Address</td><td>%s</td></tr><tr><td>Email</td><td>%s</td></tr></table>",
		r.UserID, r.FullName, r.Address, r.Email)
}

func renderAccountUpdate(user string) *page {
	return renderf("Account Updated", "<p>Profile for %s updated.</p>", user)
}

func renderPortfolio(r trade.PortfolioResult) *page {
	p := startPage("Portfolio")
	p.printf("<p>%d holdings for %s.</p><table class=\"panel-03\">"+
		"<tr><th>Holding</th><th>Symbol</th><th>Qty</th><th>Price</th><th>Date</th></tr>",
		len(r.Holdings), r.UserID)
	for _, h := range r.Holdings {
		p.printf("<tr><td>%s</td><td>%s</td><td>%.0f</td><td>$%.2f</td><td>%s</td></tr>",
			h.HoldingID, h.Symbol, h.Quantity, h.PurchasePrice, h.PurchaseDate)
	}
	p.b = append(p.b, "</table>"...)
	return p.end()
}

func renderMarketSummary(r trade.MarketSummaryResult) *page {
	p := startPage("Market Summary")
	p.printf("<p>Market summary (volume %.0f).</p><table class=\"panel-05\">"+
		"<tr><th>Symbol</th><th>Company</th><th>Price</th></tr>", r.Volume)
	for _, q := range r.Top {
		p.printf("<tr><td>%s</td><td>%s</td><td>$%.2f</td></tr>", q.Symbol, q.Company, q.Price)
	}
	p.b = append(p.b, "</table>"...)
	return p.end()
}

func renderQuote(r trade.QuoteResult) *page {
	return renderf("Quote",
		"<table class=\"panel-04\"><tr><td>Symbol</td><td>%s</td></tr>"+
			"<tr><td>Price</td><td>$%.2f</td></tr></table>", r.Symbol, r.Price)
}

func renderBuy(r trade.BuyResult) *page {
	return renderf("Buy Order Confirmation",
		"<p>Bought %.0f %s @ $%.2f (total $%.2f). Holding %s. New balance $%.2f.</p>",
		r.Quantity, r.Symbol, r.Price, r.Total, r.HoldingID, r.Balance)
}

func renderSell(r trade.SellResult) *page {
	if !r.Sold {
		return renderf("Sell Order", "<p>No holdings to sell.</p>")
	}
	return renderf("Sell Order Confirmation",
		"<p>Sold %.0f %s @ $%.2f (proceeds $%.2f). Holding %s closed. New balance $%.2f.</p>",
		r.Quantity, r.Symbol, r.Price, r.Proceeds, r.HoldingID, r.Balance)
}
