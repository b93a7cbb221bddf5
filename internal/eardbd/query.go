package eardbd

import (
	"errors"
	"fmt"
	"net"

	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// Query performs one snapshot query over an open connection: the
// admin-tool side of the protocol (earctl dbd). A server error frame
// comes back as an error; maxPayload <= 0 uses the wire default.
func Query(conn net.Conn, q wire.Query, maxPayload int) (wire.Result, error) {
	return queryCtx(conn, q, maxPayload, trace.Context{})
}

// queryCtx is Query carrying a trace context on the query frame, so a
// caller's span tree continues into the server's server.query span. A
// zero context sends an untraced frame, byte-identical to Query's. It
// keeps no state between calls and the result is the caller's to keep;
// a caller that asks the same peer again and again holds a wire.Conn
// and asks through SendQuery and ReadResult.
func queryCtx(conn net.Conn, q wire.Query, maxPayload int, tc trace.Context) (wire.Result, error) {
	qf, err := wire.EncodeQuery(q)
	if err != nil {
		return wire.Result{}, err
	}
	qf.Trace = tc
	if err := wire.WriteFrame(conn, qf, maxPayload); err != nil {
		return wire.Result{}, err
	}
	return resultOf(wire.ReadFrame(conn, maxPayload))
}

// SendQuery and ReadResult are queryCtx's two halves over a
// connection's framing state — the federation root's pooled shard
// connections, which it asks all before it reads any. SendQuery builds
// the query in c's image and sends it in one write.
func SendQuery(c *wire.Conn, q wire.Query, tc trace.Context) error {
	return c.Send(wire.TypeQuery, tc, wire.AppendQuery(c.Body(), q))
}

// ReadResult reads the reply to a query SendQuery sent. The result's
// body is c's read buffer: valid until c's next read and no longer.
func ReadResult(c *wire.Conn) (wire.Result, error) {
	return resultOf(c.Read())
}

// ErrServer marks a server's error frame, come back as an error: the
// query was answered — refused — over a connection that is sound.
var ErrServer = errors.New("eardbd: server")

// resultOf reads the reply to a query as a read returned it: a result,
// the read's error, or the server's error frame as an error wrapping
// ErrServer.
func resultOf(resp wire.Frame, err error) (wire.Result, error) {
	if err != nil {
		return wire.Result{}, err
	}
	switch resp.Type {
	case wire.TypeResult:
		return resp.AsResult()
	case wire.TypeError:
		ef, err := resp.AsError()
		if err != nil {
			return wire.Result{}, err
		}
		return wire.Result{}, fmt.Errorf("%w: %s", ErrServer, ef.Message)
	default:
		return wire.Result{}, fmt.Errorf("eardbd: unexpected %s response to query", resp.Type)
	}
}
