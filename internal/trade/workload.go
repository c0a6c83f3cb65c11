package trade

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
)

// Action enumerates the Trade actions of Table 1.
type Action int

// Trade actions.
const (
	ActionLogin Action = iota + 1
	ActionLogout
	ActionRegister
	ActionHome
	ActionAccount
	ActionAccountUpdate
	ActionPortfolio
	ActionQuote
	ActionBuy
	ActionSell
)

// Actions lists every action in Table 1 order.
var Actions = []Action{
	ActionLogin, ActionLogout, ActionRegister, ActionHome, ActionAccount,
	ActionAccountUpdate, ActionPortfolio, ActionQuote, ActionBuy, ActionSell,
}

// String returns the action name used in requests and reports.
func (a Action) String() string {
	switch a {
	case ActionLogin:
		return "login"
	case ActionLogout:
		return "logout"
	case ActionRegister:
		return "register"
	case ActionHome:
		return "home"
	case ActionAccount:
		return "account"
	case ActionAccountUpdate:
		return "accountUpdate"
	case ActionPortfolio:
		return "portfolio"
	case ActionQuote:
		return "quote"
	case ActionBuy:
		return "buy"
	case ActionSell:
		return "sell"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// ParseAction maps an action name back to its Action.
func ParseAction(s string) (Action, error) {
	for _, a := range Actions {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("trade: unknown action %q", s)
}

// Description returns Table 1's description of the action.
func (a Action) Description() string {
	switch a {
	case ActionLogin:
		return "User sign in, session creation"
	case ActionLogout:
		return "User sign-off, session destroy"
	case ActionRegister:
		return "Create a new user profile and account"
	case ActionHome:
		return "Personalized home page including current market conditions"
	case ActionAccount:
		return "Review current user profile information"
	case ActionAccountUpdate:
		return "\"Account\" followed by user profile update"
	case ActionPortfolio:
		return "View users current security holdings"
	case ActionQuote:
		return "View a current security quote"
	case ActionBuy:
		return "\"Quote\" followed by a security purchase"
	case ActionSell:
		return "\"Portfolio\" followed by the sell of a holding"
	default:
		return ""
	}
}

// CMPOperation returns Table 1's CMP bean operation for the action.
func (a Action) CMPOperation() string {
	switch a {
	case ActionLogin, ActionLogout:
		return "Update"
	case ActionRegister:
		return "Multi-Bean Create"
	case ActionHome, ActionAccount, ActionPortfolio, ActionQuote:
		return "Read"
	case ActionAccountUpdate:
		return "Read/Update"
	case ActionBuy, ActionSell:
		return "Multi-Bean Read/Update"
	default:
		return ""
	}
}

// DBActivity returns Table 1's database activity for the action
// (C/R/U/D per entity).
func (a Action) DBActivity() string {
	switch a {
	case ActionLogin:
		return "Registry R,U; Account R"
	case ActionLogout:
		return "Registry R,U"
	case ActionRegister:
		return "Account C; Profile C; Registry C"
	case ActionHome:
		return "Account R"
	case ActionAccount:
		return "Profile R"
	case ActionAccountUpdate:
		return "Profile R,U"
	case ActionPortfolio:
		return "Holding R"
	case ActionQuote:
		return "Quote R"
	case ActionBuy:
		return "Quote R; Account R,U; Holding C,R"
	case ActionSell:
		return "Quote R; Account R,U; Holding D,R"
	default:
		return ""
	}
}

// Step is one client interaction in a session.
type Step struct {
	Action   Action
	UserID   string
	Symbol   string
	Quantity float64
	// NewUserID is set for register steps.
	NewUserID string
	FullName  string
	Email     string
	Address   string
	SessionID string
}

// Mix is the relative weight of each mid-session action. Login and
// logout bracket every session and are not part of the mix.
type Mix struct {
	Home          int
	Account       int
	AccountUpdate int
	Portfolio     int
	Quote         int
	Buy           int
	Sell          int
	Register      int
}

// DefaultMix is a browse-heavy brokerage mix in the spirit of Trade2's
// runtime characteristics: quotes and page views dominate, with a
// meaningful stream of buys and sells.
func DefaultMix() Mix {
	return Mix{
		Home:          20,
		Account:       10,
		AccountUpdate: 4,
		Portfolio:     14,
		Quote:         26,
		Buy:           12,
		Sell:          10,
		Register:      4,
	}
}

func (m Mix) total() int {
	return m.Home + m.Account + m.AccountUpdate + m.Portfolio + m.Quote + m.Buy + m.Sell + m.Register
}

// Generator produces random sessions: a login, a geometric number of
// mid-session actions (mean ActionsPerSession-2), and a logout — "a
// single session consists of about 11 individual trade actions" (§4.2).
type Generator struct {
	// mu serializes session generation: the load generator calls Session
	// from many client goroutines against one shared Generator, and
	// *rand.Rand is not safe for concurrent use. (An unguarded rng
	// silently corrupts its state under races — torn session IDs and a
	// skewed action mix — rather than crashing.)
	mu    sync.Mutex
	rng   *rand.Rand
	mix   Mix
	users int
	syms  int
	// mean number of actions per session including login/logout.
	actionsPerSession int
	nextSession       int
}

// newUserSeq numbers the users that register steps create. It is
// process-wide, not per Generator: two generators (or two runs against
// one topology) must never register the same ID, or the second
// registration fails with "row already exists". Only the IDs depend on
// it; the rest of a generator's step stream stays seed-deterministic.
var newUserSeq atomic.Uint64

// GeneratorConfig sizes the generator.
type GeneratorConfig struct {
	// Seed makes the workload reproducible.
	Seed int64
	// Users is the number of pre-registered users (see Populate).
	Users int
	// Symbols is the number of pre-seeded quote symbols.
	Symbols int
	// ActionsPerSession is the mean session length including login and
	// logout; the paper reports about 11. Defaults to 11.
	ActionsPerSession int
	// Mix overrides the mid-session action weights; zero value means
	// DefaultMix.
	Mix Mix
}

// NewGenerator builds a workload generator.
func NewGenerator(cfg GeneratorConfig) *Generator {
	if cfg.ActionsPerSession <= 2 {
		cfg.ActionsPerSession = 11
	}
	if cfg.Users < 1 {
		cfg.Users = 50
	}
	if cfg.Symbols < 1 {
		cfg.Symbols = 100
	}
	mix := cfg.Mix
	if mix.total() == 0 {
		mix = DefaultMix()
	}
	return &Generator{
		rng:               rand.New(rand.NewSource(cfg.Seed)),
		mix:               mix,
		users:             cfg.Users,
		syms:              cfg.Symbols,
		actionsPerSession: cfg.ActionsPerSession,
	}
}

// UserID returns the canonical ID of pre-registered user n.
func UserID(n int) string { return fmt.Sprintf("uid-%d", n) }

// SymbolID returns the canonical ID of pre-seeded symbol n.
func SymbolID(n int) string { return fmt.Sprintf("s-%d", n) }

// Session generates the steps of one client session. It is safe for
// concurrent use.
func (g *Generator) Session() []Step {
	g.mu.Lock()
	defer g.mu.Unlock()
	user := UserID(g.rng.Intn(g.users))
	g.nextSession++
	sessionID := fmt.Sprintf("sess-%d", g.nextSession)

	// Geometric-ish session length with the configured mean, at least
	// one mid-session action.
	mean := g.actionsPerSession - 2
	n := 1
	for n < mean*4 && g.rng.Float64() > 1.0/float64(mean) {
		n++
	}

	steps := make([]Step, 0, n+2)
	steps = append(steps, Step{Action: ActionLogin, UserID: user, SessionID: sessionID})
	for i := 0; i < n; i++ {
		steps = append(steps, g.step(user))
	}
	steps = append(steps, Step{Action: ActionLogout, UserID: user})
	return steps
}

func (g *Generator) step(user string) Step {
	pick := g.rng.Intn(g.mix.total())
	symbol := SymbolID(g.rng.Intn(g.syms))
	switch {
	case pick < g.mix.Home:
		return Step{Action: ActionHome, UserID: user}
	case pick < g.mix.Home+g.mix.Account:
		return Step{Action: ActionAccount, UserID: user}
	case pick < g.mix.Home+g.mix.Account+g.mix.AccountUpdate:
		return Step{
			Action:  ActionAccountUpdate,
			UserID:  user,
			Address: fmt.Sprintf("%d Main St", g.rng.Intn(10000)),
			Email:   user + "@example.test",
		}
	case pick < g.mix.Home+g.mix.Account+g.mix.AccountUpdate+g.mix.Portfolio:
		return Step{Action: ActionPortfolio, UserID: user}
	case pick < g.mix.Home+g.mix.Account+g.mix.AccountUpdate+g.mix.Portfolio+g.mix.Quote:
		return Step{Action: ActionQuote, UserID: user, Symbol: symbol}
	case pick < g.mix.Home+g.mix.Account+g.mix.AccountUpdate+g.mix.Portfolio+g.mix.Quote+g.mix.Buy:
		return Step{
			Action:   ActionBuy,
			UserID:   user,
			Symbol:   symbol,
			Quantity: float64(1 + g.rng.Intn(10)),
		}
	case pick < g.mix.Home+g.mix.Account+g.mix.AccountUpdate+g.mix.Portfolio+g.mix.Quote+g.mix.Buy+g.mix.Sell:
		return Step{Action: ActionSell, UserID: user}
	default:
		newUser := "new-" + strconv.FormatUint(newUserSeq.Add(1), 10)
		return Step{
			Action:    ActionRegister,
			UserID:    user,
			NewUserID: newUser,
			FullName:  "New User " + newUser,
			Email:     newUser + "@example.test",
		}
	}
}
