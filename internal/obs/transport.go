package obs

import "context"

// transportKey carries the name of the wire transport that delivered a
// request into the handler's context.
type transportKey struct{}

// WithTransport tags ctx with the transport ("binary") a request arrived
// on, so the query layer can annotate its span with the wire phase
// without the server importing the engine.
func WithTransport(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, transportKey{}, name)
}

// TransportFrom returns the transport tag, or "" when the request did
// not arrive over a wire server.
func TransportFrom(ctx context.Context) string {
	name, _ := ctx.Value(transportKey{}).(string)
	return name
}
