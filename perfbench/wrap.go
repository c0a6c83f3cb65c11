package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"edgeejb/internal/component"
	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// layer names the public interface a span was timed at.
type layer uint8

const (
	layerApp     layer = iota // appserver.Client.DoStep, client side
	layerRM                   // component.ResourceManager and DataTx
	layerShard                // the shard router, as a storeapi.Conn
	layerDBWire               // the edge's shared-path dbwire client
	layerBackend              // the conn handed to backend.NewServer
	layerSQL                  // storeapi.Local(store) handed to dbwire.NewServer
	numLayers
)

// children lists the layers a layer calls into; a span's self time is
// its duration minus the union of these layers' spans of the same
// trace.
var children = [numLayers][]layer{
	layerApp:     {layerRM},
	layerRM:      {layerShard, layerDBWire},
	layerShard:   {layerDBWire},
	layerDBWire:  {layerBackend, layerSQL},
	layerBackend: {layerSQL},
}

// kind tells the calls apart that per-layer metrics single out.
type kind uint8

const (
	kindCall kind = iota
	kindBegin
	kindCommitOK
	kindCommitFailed
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's base instant.
type span struct {
	trace      uint64
	start, end int64
	layer      layer
	kind       kind
}

// recorder keeps spans in memory while on; they are analysed and
// written out after the run. Calls on a context without an obs trace
// ID (background work such as invalidation streams) are not recorded.
type recorder struct {
	on    atomic.Bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) add(ctx context.Context, l layer, k kind, start time.Time, d time.Duration) {
	if !r.on.Load() {
		return
	}
	trace := obs.TraceID(ctx)
	if trace == 0 {
		return
	}
	s := int64(start.Sub(r.base))
	r.mu.Lock()
	r.spans = append(r.spans, span{trace: trace, start: s, end: s + int64(d), layer: l, kind: k})
	r.mu.Unlock()
}

// timer is a timed call in progress; done records it.
type timer struct {
	r     *recorder
	l     layer
	start time.Time
}

func (r *recorder) timer(l layer) timer { return timer{r: r, l: l, start: time.Now()} }

func (t timer) done(ctx context.Context, k kind) { t.r.add(ctx, t.l, k, t.start, time.Since(t.start)) }

// wrapConn times every call into conn. The result implements
// storeapi.Preparer exactly when conn does, and its transactions
// implement storeapi.BatchTxn exactly when conn's do, so wrapping
// changes neither the shard router's 2PC nor batching.
func wrapConn(conn storeapi.Conn, r *recorder, l layer) storeapi.Conn {
	c := &tconn{inner: conn, r: r, l: l}
	if p, ok := conn.(storeapi.Preparer); ok {
		return &tprepConn{tconn: c, p: p}
	}
	return c
}

type tconn struct {
	inner storeapi.Conn
	r     *recorder
	l     layer
}

func (c *tconn) Begin(ctx context.Context) (storeapi.Txn, error) {
	t := c.r.timer(c.l)
	defer t.done(ctx, kindCall)
	txn, err := c.inner.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return wrapTxn(txn, c.r, c.l), nil
}

func (c *tconn) AutoGet(ctx context.Context, table, id string) (storeapi.GetResult, error) {
	defer c.r.timer(c.l).done(ctx, kindCall)
	return c.inner.AutoGet(ctx, table, id)
}

func (c *tconn) AutoQuery(ctx context.Context, q memento.Query) (storeapi.QueryResult, error) {
	defer c.r.timer(c.l).done(ctx, kindCall)
	return c.inner.AutoQuery(ctx, q)
}

func (c *tconn) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	defer c.r.timer(c.l).done(ctx, kindCall)
	return c.inner.ApplyCommitSet(ctx, cs)
}

func (c *tconn) ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error) {
	defer c.r.timer(c.l).done(ctx, kindCall)
	return c.inner.ApplyCommitSets(ctx, sets)
}

// Subscribe is a long-lived stream, not a call; it is not timed.
func (c *tconn) Subscribe(ctx context.Context) (<-chan sqlstore.Notice, func(), error) {
	return c.inner.Subscribe(ctx)
}

func (c *tconn) Close() error { return c.inner.Close() }

type tprepConn struct {
	*tconn
	p storeapi.Preparer
}

func (c *tprepConn) Prepare(ctx context.Context, gid string, cs memento.CommitSet) error {
	defer c.r.timer(c.l).done(ctx, kindCall)
	return c.p.Prepare(ctx, gid, cs)
}

func (c *tprepConn) CommitPrepared(ctx context.Context, gid string) (sqlstore.ApplyResult, error) {
	defer c.r.timer(c.l).done(ctx, kindCall)
	return c.p.CommitPrepared(ctx, gid)
}

func (c *tprepConn) AbortPrepared(ctx context.Context, gid string) error {
	defer c.r.timer(c.l).done(ctx, kindCall)
	return c.p.AbortPrepared(ctx, gid)
}

func wrapTxn(txn storeapi.Txn, r *recorder, l layer) storeapi.Txn {
	t := &ttxn{inner: txn, r: r, l: l}
	if b, ok := txn.(storeapi.BatchTxn); ok {
		return &tbatchTxn{ttxn: t, b: b}
	}
	return t
}

type ttxn struct {
	inner storeapi.Txn
	r     *recorder
	l     layer
}

func (t *ttxn) ID() uint64 { return t.inner.ID() }

func (t *ttxn) Get(ctx context.Context, table, id string) (storeapi.GetResult, error) {
	defer t.r.timer(t.l).done(ctx, kindCall)
	return t.inner.Get(ctx, table, id)
}

func (t *ttxn) GetForUpdate(ctx context.Context, table, id string) (storeapi.GetResult, error) {
	defer t.r.timer(t.l).done(ctx, kindCall)
	return t.inner.GetForUpdate(ctx, table, id)
}

func (t *ttxn) Put(ctx context.Context, m memento.Memento) error {
	defer t.r.timer(t.l).done(ctx, kindCall)
	return t.inner.Put(ctx, m)
}

func (t *ttxn) Insert(ctx context.Context, m memento.Memento) error {
	defer t.r.timer(t.l).done(ctx, kindCall)
	return t.inner.Insert(ctx, m)
}

func (t *ttxn) Delete(ctx context.Context, table, id string) error {
	defer t.r.timer(t.l).done(ctx, kindCall)
	return t.inner.Delete(ctx, table, id)
}

func (t *ttxn) Query(ctx context.Context, q memento.Query) (storeapi.QueryResult, error) {
	defer t.r.timer(t.l).done(ctx, kindCall)
	return t.inner.Query(ctx, q)
}

func (t *ttxn) CheckVersion(ctx context.Context, key memento.Key, version uint64) error {
	defer t.r.timer(t.l).done(ctx, kindCall)
	return t.inner.CheckVersion(ctx, key, version)
}

func (t *ttxn) CheckedPut(ctx context.Context, m memento.Memento) error {
	defer t.r.timer(t.l).done(ctx, kindCall)
	return t.inner.CheckedPut(ctx, m)
}

func (t *ttxn) CheckedDelete(ctx context.Context, key memento.Key, version uint64) error {
	defer t.r.timer(t.l).done(ctx, kindCall)
	return t.inner.CheckedDelete(ctx, key, version)
}

func (t *ttxn) Commit(ctx context.Context) error {
	defer t.r.timer(t.l).done(ctx, kindCall)
	return t.inner.Commit(ctx)
}

func (t *ttxn) Abort(ctx context.Context) error {
	defer t.r.timer(t.l).done(ctx, kindCall)
	return t.inner.Abort(ctx)
}

type tbatchTxn struct {
	*ttxn
	b storeapi.BatchTxn
}

func (t *tbatchTxn) ExecBatch(ctx context.Context, stmts []storeapi.Stmt) ([]storeapi.StmtResult, error) {
	defer t.r.timer(t.l).done(ctx, kindCall)
	return t.b.ExecBatch(ctx, stmts)
}

// trm times the resource manager handed to component.NewContainer and
// every call into the transactions it begins.
type trm struct {
	inner component.ResourceManager
	r     *recorder
}

func (m *trm) Name() string { return m.inner.Name() }

func (m *trm) Begin(ctx context.Context) (component.DataTx, error) {
	defer m.r.timer(layerRM).done(ctx, kindBegin)
	dt, err := m.inner.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &tdtx{inner: dt, r: m.r}, nil
}

type tdtx struct {
	inner component.DataTx
	r     *recorder
}

func (d *tdtx) Load(ctx context.Context, key memento.Key) (memento.Memento, error) {
	defer d.r.timer(layerRM).done(ctx, kindCall)
	return d.inner.Load(ctx, key)
}

func (d *tdtx) Store(ctx context.Context, m memento.Memento) error {
	defer d.r.timer(layerRM).done(ctx, kindCall)
	return d.inner.Store(ctx, m)
}

func (d *tdtx) Create(ctx context.Context, m memento.Memento) error {
	defer d.r.timer(layerRM).done(ctx, kindCall)
	return d.inner.Create(ctx, m)
}

func (d *tdtx) Remove(ctx context.Context, key memento.Key) error {
	defer d.r.timer(layerRM).done(ctx, kindCall)
	return d.inner.Remove(ctx, key)
}

func (d *tdtx) Query(ctx context.Context, q memento.Query) ([]memento.Memento, error) {
	defer d.r.timer(layerRM).done(ctx, kindCall)
	return d.inner.Query(ctx, q)
}

func (d *tdtx) Commit(ctx context.Context) error {
	t := d.r.timer(layerRM)
	err := d.inner.Commit(ctx)
	if err != nil {
		t.done(ctx, kindCommitFailed)
	} else {
		t.done(ctx, kindCommitOK)
	}
	return err
}

func (d *tdtx) Abort(ctx context.Context) error {
	defer d.r.timer(layerRM).done(ctx, kindCall)
	return d.inner.Abort(ctx)
}
