package orb

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// TraderKey is the well-known object key of a trader service.
const TraderKey = "CosTrading"

// DiscoverServiceType is the service type every DISCOVER server exports,
// as fixed by the paper's prototype.
const DiscoverServiceType = "DISCOVER"

// Offer is one service offer: a reference plus a property list, the
// CosTrading service-offer pair.
type Offer struct {
	ID          string
	ServiceType string
	Ref         ObjRef
	Props       map[string]string
}

// Trader is the CORBA Trader Service analogue. Offers carry a lease (TTL)
// because, as the paper notes, "the availability of these servers is not
// guaranteed and must be determined at runtime": an exporter that stops
// refreshing its offer disappears from query results.
type Trader struct {
	mu         sync.Mutex
	offers     map[string]*offerEntry
	nextID     uint64
	defaultTTL time.Duration
	now        func() time.Time
}

type offerEntry struct {
	offer   Offer
	expires time.Time
}

// TraderOption configures a Trader.
type TraderOption func(*Trader)

// WithOfferTTL sets the default offer lease (default 5 minutes).
func WithOfferTTL(d time.Duration) TraderOption { return func(t *Trader) { t.defaultTTL = d } }

// WithTraderClock injects a clock for lease tests.
func WithTraderClock(now func() time.Time) TraderOption { return func(t *Trader) { t.now = now } }

// NewTrader returns an empty trader.
func NewTrader(opts ...TraderOption) *Trader {
	t := &Trader{
		offers:     make(map[string]*offerEntry),
		defaultTTL: 5 * time.Minute,
		now:        time.Now,
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Trader wire types.
type (
	exportReq struct {
		ServiceType string
		Ref         ObjRef
		Props       map[string]string
		TTLSeconds  int64 // 0 means the trader default
	}
	exportResp  struct{ OfferID string }
	withdrawReq struct{ OfferID string }
	refreshReq  struct {
		OfferID    string
		TTLSeconds int64
	}
	traderResp struct{}
	queryReq   struct{ ServiceType, Constraint string }
	queryResp  struct{ Offers []Offer }
)

// Trader error codes.
const (
	CodeUnknownOffer  = "UNKNOWN_OFFER"
	CodeBadConstraint = "INVALID_CONSTRAINT"
)

func (t *Trader) purgeLocked() {
	now := t.now()
	for id, e := range t.offers {
		if now.After(e.expires) {
			delete(t.offers, id)
		}
	}
}

// Export registers an offer and returns its id.
func (t *Trader) Export(serviceType string, ref ObjRef, props map[string]string, ttl time.Duration) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ttl <= 0 {
		ttl = t.defaultTTL
	}
	t.nextID++
	id := fmt.Sprintf("offer-%d", t.nextID)
	cp := make(map[string]string, len(props))
	for k, v := range props {
		cp[k] = v
	}
	t.offers[id] = &offerEntry{
		offer:   Offer{ID: id, ServiceType: serviceType, Ref: ref, Props: cp},
		expires: t.now().Add(ttl),
	}
	return id
}

// Withdraw removes an offer.
func (t *Trader) Withdraw(offerID string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.offers[offerID]; !ok {
		return &RemoteError{Code: CodeUnknownOffer, Msg: offerID}
	}
	delete(t.offers, offerID)
	return nil
}

// Refresh renews an offer's lease.
func (t *Trader) Refresh(offerID string, ttl time.Duration) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.purgeLocked()
	e, ok := t.offers[offerID]
	if !ok {
		return &RemoteError{Code: CodeUnknownOffer, Msg: offerID}
	}
	if ttl <= 0 {
		ttl = t.defaultTTL
	}
	e.expires = t.now().Add(ttl)
	return nil
}

// Query returns live offers of the given service type matching the
// constraint, sorted by offer id for determinism.
func (t *Trader) Query(serviceType, constraint string) ([]Offer, error) {
	c, err := ParseConstraint(constraint)
	if err != nil {
		return nil, &RemoteError{Code: CodeBadConstraint, Msg: err.Error()}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.purgeLocked()
	var out []Offer
	for _, e := range t.offers {
		if e.offer.ServiceType != serviceType {
			continue
		}
		if !c.Eval(e.offer.Props) {
			continue
		}
		o := e.offer
		o.Props = make(map[string]string, len(e.offer.Props))
		for k, v := range e.offer.Props {
			o.Props[k] = v
		}
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Servant exposes the trader over the ORB.
func (t *Trader) Servant() Servant {
	return MethodMap{
		"export": Handler(func(r exportReq) (exportResp, error) {
			id := t.Export(r.ServiceType, r.Ref, r.Props, time.Duration(r.TTLSeconds)*time.Second)
			return exportResp{OfferID: id}, nil
		}),
		"withdraw": Handler(func(r withdrawReq) (traderResp, error) {
			return traderResp{}, t.Withdraw(r.OfferID)
		}),
		"refresh": Handler(func(r refreshReq) (traderResp, error) {
			return traderResp{}, t.Refresh(r.OfferID, time.Duration(r.TTLSeconds)*time.Second)
		}),
		"query": Handler(func(r queryReq) (queryResp, error) {
			offers, err := t.Query(r.ServiceType, r.Constraint)
			return queryResp{Offers: offers}, err
		}),
	}
}

// TraderClient is the remote stub for a trader.
type TraderClient struct {
	orb *ORB
	ref ObjRef
}

// NewTraderClient returns a stub bound to the trader at ref.
func NewTraderClient(o *ORB, ref ObjRef) *TraderClient {
	return &TraderClient{orb: o, ref: ref}
}

// Ref returns the trader's object reference.
func (c *TraderClient) Ref() ObjRef { return c.ref }

// Export registers an offer remotely and returns its id.
func (c *TraderClient) Export(ctx context.Context, serviceType string, ref ObjRef, props map[string]string, ttl time.Duration) (string, error) {
	var resp exportResp
	err := c.orb.Invoke(ctx, c.ref, "export", exportReq{
		ServiceType: serviceType, Ref: ref, Props: props, TTLSeconds: int64(ttl / time.Second),
	}, &resp)
	return resp.OfferID, err
}

// Withdraw removes an offer remotely.
func (c *TraderClient) Withdraw(ctx context.Context, offerID string) error {
	return c.orb.Invoke(ctx, c.ref, "withdraw", withdrawReq{OfferID: offerID}, nil)
}

// Refresh renews an offer's lease remotely.
func (c *TraderClient) Refresh(ctx context.Context, offerID string, ttl time.Duration) error {
	return c.orb.Invoke(ctx, c.ref, "refresh", refreshReq{OfferID: offerID, TTLSeconds: int64(ttl / time.Second)}, nil)
}

// Query finds matching offers remotely.
func (c *TraderClient) Query(ctx context.Context, serviceType, constraint string) ([]Offer, error) {
	var resp queryResp
	if err := c.orb.Invoke(ctx, c.ref, "query", queryReq{
		ServiceType: serviceType, Constraint: constraint,
	}, &resp); err != nil {
		return nil, err
	}
	return resp.Offers, nil
}
