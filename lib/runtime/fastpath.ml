let try_run _pool _plan _md _env = None
