package lint

// Fork returns a driver for one more Run over the packages d has already
// loaded: it shares d's file set, importers and type-checked package
// cache — the expensive part, a source type-check of the standard
// library and the module — and starts with no diagnostics. Test-only:
// the tests of this package run sequentially, so the shared cache needs
// no lock.
func (d *Driver) Fork() *Driver {
	return &Driver{
		Fset:    d.Fset,
		modRoot: d.modRoot,
		modPath: d.modPath,
		std:     d.std,
		pkgs:    d.pkgs,
		loading: d.loading,
	}
}
