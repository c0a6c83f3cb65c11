package main

import (
	"context"
	"fmt"
	"runtime/pprof"

	"edgeejb/internal/appserver"
	"edgeejb/internal/backend"
	"edgeejb/internal/component"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/harness"
	"edgeejb/internal/latency"
	"edgeejb/internal/memento"
	"edgeejb/internal/shard"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// assembly is harness.Build's topology with one edge server, rebuilt
// from the public constructors so that a timing wrapper can sit at
// every layer boundary and every server starts under a pprof layer
// label. It mirrors topology.go and topology_shard.go step for step;
// the self-test checks that it carries exactly the same shared-path
// traffic.
type assembly struct {
	stores    []*sqlstore.Store
	ring      *shard.Ring
	managers  []*slicache.Manager
	dbClients []*dbwire.Client
	app       *appserver.Server
	closers   []func()
}

// startLabelled runs start with the goroutine labelled layer=name;
// the goroutines start spawns inherit the label.
func startLabelled(name string, start func(ctx context.Context) error) error {
	var err error
	pprof.Do(context.Background(), pprof.Labels("layer", name), func(ctx context.Context) { err = start(ctx) })
	return err
}

func assemble(opts harness.Options, r *recorder) (sys *system, err error) {
	a := &assembly{}
	defer func() {
		if err != nil {
			a.close()
		}
	}()
	dbOpts := []dbwire.Option{dbwire.WithCodec(opts.Codec)}
	if opts.Shards > 1 {
		err = a.buildSharded(opts, dbOpts, r)
	} else {
		err = a.build(opts, dbOpts, r)
	}
	if err != nil {
		return nil, err
	}
	sys = &system{
		newClient: func() *appserver.Client { return appserver.NewClient(a.app.Addr()) },
		sharedStats: func() wire.Stats {
			snaps := make([]wire.Stats, len(a.dbClients))
			for i, c := range a.dbClients {
				snaps[i] = c.WireStats()
			}
			return wire.MergeStats(snaps...)
		},
		stores:   a.stores,
		ring:     a.ring,
		managers: a.managers,
		close:    a.close,
	}
	return sys, nil
}

func newStore(opts harness.Options, extra ...sqlstore.Option) *sqlstore.Store {
	return sqlstore.New(append([]sqlstore.Option{sqlstore.WithLockTimeout(opts.LockTimeout)}, extra...)...)
}

// dataTier starts a db server over store and, on ES/RBES, a back-end
// server next to it; it returns the address the delay proxy forwards to.
func (a *assembly) dataTier(opts harness.Options, store *sqlstore.Store, dbOpts []dbwire.Option, r *recorder) (string, error) {
	dbServer := dbwire.NewServer(wrapConn(storeapi.Local(store), r, layerSQL))
	if err := startLabelled("dbwire", func(context.Context) error { return dbServer.Start("127.0.0.1:0") }); err != nil {
		return "", fmt.Errorf("start db server: %w", err)
	}
	a.closers = append(a.closers, dbServer.Close)
	if opts.Arch != harness.ESRBES {
		return dbServer.Addr(), nil
	}
	backendDB := dbwire.Dial(dbServer.Addr(), dbOpts...)
	a.closers = append(a.closers, func() { _ = backendDB.Close() })
	be := backend.NewServer(wrapConn(backendDB, r, layerBackend))
	if err := startLabelled("backend", func(context.Context) error { return be.Start("127.0.0.1:0") }); err != nil {
		return "", fmt.Errorf("start back-end server: %w", err)
	}
	a.closers = append(a.closers, be.Close)
	return be.Addr(), nil
}

func (a *assembly) startProxy(target string, opts harness.Options) (string, error) {
	p := latency.NewProxy(target, opts.OneWayDelay)
	if err := startLabelled("latency", func(context.Context) error { return p.Start("127.0.0.1:0") }); err != nil {
		return "", fmt.Errorf("start delay proxy: %w", err)
	}
	a.closers = append(a.closers, p.Close)
	return p.Addr(), nil
}

func (a *assembly) dial(addr string, dbOpts []dbwire.Option) *dbwire.Client {
	c := dbwire.Dial(addr, dbOpts...)
	a.dbClients = append(a.dbClients, c)
	a.closers = append(a.closers, func() { _ = c.Close() })
	return c
}

func (a *assembly) build(opts harness.Options, dbOpts []dbwire.Option, r *recorder) error {
	store := newStore(opts)
	a.stores = []*sqlstore.Store{store}
	trade.Populate(store, opts.Populate)
	target, err := a.dataTier(opts, store, dbOpts, r)
	if err != nil {
		return err
	}
	proxyAddr, err := a.startProxy(target, opts)
	if err != nil {
		return err
	}
	conn := wrapConn(a.dial(proxyAddr, dbOpts), r, layerDBWire)

	var rm component.ResourceManager
	switch opts.Algo {
	case harness.AlgJDBC:
		rm = component.NewJDBCManager(conn, component.WithBatching(opts.Batch))
	case harness.AlgCachedEJB:
		shipping := slicache.PerImage
		if opts.Arch == harness.ESRBES {
			shipping = slicache.WholeSet
		}
		if rm, err = a.startManager(conn, shipping, opts); err != nil {
			return err
		}
	default:
		return fmt.Errorf("assemble: algorithm %s is not used by any workload", opts.Algo)
	}
	return a.startApp(rm, r)
}

func (a *assembly) buildSharded(opts harness.Options, dbOpts []dbwire.Option, r *recorder) error {
	a.ring = shard.NewRing(opts.Shards, shard.WithPlacement(trade.ShardPlacement))
	rows := trade.PopulationRows(opts.Populate)
	proxyAddrs := make([]string, opts.Shards)
	for i := range proxyAddrs {
		store := newStore(opts, sqlstore.WithTxIDBase(uint64(i)<<40))
		a.stores = append(a.stores, store)
		_ = store.CreateIndex(trade.TableHolding, "accountID") // cannot fail on a fresh store, as in harness
		var owned []memento.Memento
		for _, m := range rows {
			if a.ring.Of(m.Key) == i {
				owned = append(owned, m)
			}
		}
		store.Seed(owned...)
		target, err := a.dataTier(opts, store, dbOpts, r)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if proxyAddrs[i], err = a.startProxy(target, opts); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	conns := make([]storeapi.Conn, opts.Shards)
	for i, addr := range proxyAddrs {
		conns[i] = wrapConn(a.dial(addr, dbOpts), r, layerDBWire)
	}
	router, err := shard.NewRouter(a.ring, conns, shard.WithQueryAffinity(trade.QueryShardPlacement))
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	rm, err := a.startManager(wrapConn(router, r, layerShard), slicache.WholeSet, opts)
	if err != nil {
		return err
	}
	return a.startApp(rm, r)
}

func (a *assembly) startManager(conn storeapi.Conn, shipping slicache.CommitShipping, opts harness.Options) (*slicache.Manager, error) {
	mgr := slicache.NewManager(conn, append([]slicache.ManagerOption{slicache.WithShipping(shipping)}, opts.CacheOptions...)...)
	if err := startLabelled("slicache", mgr.Start); err != nil {
		return nil, fmt.Errorf("start cache manager: %w", err)
	}
	a.closers = append(a.closers, mgr.Close)
	a.managers = append(a.managers, mgr)
	return mgr, nil
}

func (a *assembly) startApp(rm component.ResourceManager, r *recorder) error {
	registry, err := trade.NewEntityRegistry()
	if err != nil {
		return err
	}
	app := appserver.NewServer(trade.NewService(component.NewContainer(registry, &trm{inner: rm, r: r})))
	if err := startLabelled("appserver", func(context.Context) error { return app.Start("127.0.0.1:0") }); err != nil {
		return fmt.Errorf("start app server: %w", err)
	}
	a.closers = append(a.closers, app.Close)
	a.app = app
	return nil
}

// close tears down in reverse build order, then closes the stores, as
// harness.Topology.Close does.
func (a *assembly) close() {
	for i := len(a.closers) - 1; i >= 0; i-- {
		a.closers[i]()
	}
	a.closers = nil
	for _, s := range a.stores {
		s.Close()
	}
}
