package fed

// MaxIdlePerShard is the idle bound the external fault tests hold the
// connection pool to.
const MaxIdlePerShard = maxIdlePerShard
