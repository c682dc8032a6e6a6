// Prose that mentions a directive is not one. This is server code: the
// epoch envelope and durable allocation belong here. Client files start
// with the line txlint-scope: ipc-client
// and a reviewed line may carry txlint: allow(x). Neither mention here
// is a directive, so this file must lint clean.
// txlint-expect: none

void server_put(epoch::EpochSys& es, std::uint64_t k, std::uint64_t v) {
  es.beginOp();
  auto* rec = static_cast<std::uint64_t*>(es.pNew(16));
  rec[0] = k;
  rec[1] = v;
  es.pTrack(rec);
  es.endOp();
}
