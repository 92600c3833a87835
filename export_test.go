package paratreet

// FetchTimeoutOf exposes the derived cache fill deadline to the external
// tests.
var FetchTimeoutOf = (*Config).fetchTimeout
