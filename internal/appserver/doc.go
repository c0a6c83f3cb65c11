// Package appserver implements the application-server tier: the process
// that receives client trade requests, runs the corresponding session
// logic (one transaction per request), renders the result page, and
// returns it. In the paper's setups this tier is Tomcat + servlets/JSPs
// over the EJB container; here it is a TCP request/response server over
// the trade service.
//
// The rendered page carries the presentation portion (HTML chrome) of
// the application. In the Clients/RAS architecture the full page crosses
// the high-latency path to the client, which is exactly what makes that
// architecture's bandwidth demand (> 7000 bytes per interaction in the
// paper) so much higher than the edge architectures', where the page is
// rendered at the edge and only entity data crosses the shared path.
//
// Requests and pages travel on package wire with a binary body codec
// (codec.go) that client and server install before the first frame:
// every peer of this protocol is built from this package, so there is
// no handshake and no gob body. The server renders each page once into
// a pooled buffer and returns the buffer to the pool when the transport
// has written the response frame (Response.Release); the client copies
// the page out of its frame buffer once. The page bytes are the same as
// a plain string-built page's, so Figure 8's Clients/RAS bytes count
// only the smaller framing of the request and page.
//
// Paper mapping: one Server is one "HTTP server + application server"
// box of Figures 3–5 — an edge server under ES/RDB and ES/RBES, the
// remote application server under Clients/RAS. Each dispatched action is
// timed as an "edge.request" trace span and counted by the
// appserver.requests / appserver.failures metrics (see OBSERVABILITY.md).
package appserver
