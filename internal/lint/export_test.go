package lint

// SortFindings exposes the driver's findings order to the external
// driver tests.
var SortFindings = sortFindings
