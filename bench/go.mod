module lcasgd/bench

go 1.24

require lcasgd v0.0.0

// The harness measures the parent module's layers from outside by calling
// their exported functions; sharing the lcasgd/ import-path prefix is what
// lets it import lcasgd/internal/... from a module of its own.
replace lcasgd => ../
