#ifndef PRIVATECLEAN_CORE_RELEASE_H_
#define PRIVATECLEAN_CORE_RELEASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/private_table.h"
#include "privacy/grr.h"

namespace privateclean {

/// Serialization of a private release — the actual provider→analyst
/// handoff. A format-v3 release directory contains:
///
///   MANIFEST       magic, format version, relation size, and one line
///                  per payload file with its byte length and CRC32C,
///                  followed by a self-checksum of the manifest itself
///   column_<i>.bin the i-th column of the private relation V as a
///                  little-endian binary segment: the dense values
///                  (uint32 dictionary codes for strings, int64 or
///                  double for numbers) followed by an LSB-first
///                  validity bitmap of ceil(rows / 8) bytes
///   meta.csv       one row per attribute: name, kind, physical type,
///                  mechanism parameter (p or b), sensitivity, domain
///                  size
///   domain_<i>.csv the randomization-time domain of the i-th discrete
///                  attribute (one typed column; nulls encoded as \N)
///   dict_<i>.csv   the i-th discrete attribute's string dictionary in
///                  code order (string-typed attributes only); segment
///                  codes index it directly
///
/// Format v2 stored V as one RFC-4180 CSV, data.csv, instead of the
/// segments; readers still open it. Pre-manifest (v1) directories are
/// no longer read (FailedPrecondition). ReleaseRelationToCsv renders
/// any relation as the CSV data.csv held (`pclean export`).
///
/// Everything in the release is a public parameter of the mechanism —
/// shipping it alongside V does not weaken ε-local differential privacy
/// — and it is exactly what the analyst-side estimators need (p_i, b_i,
/// the dirty domains fixing N, and S).
///
/// Durability contract. WriteRelease renders every file in memory
/// first, writes them into a temporary sibling directory with
/// write+fsync, fsyncs that directory, and only then renames it over
/// the target (backing up and restoring an existing release if the
/// swap fails part-way). ReadRelease reads each payload file once,
/// verifies its length and CRC32C against the MANIFEST before decoding,
/// and maps damage to typed statuses:
///
///   NotFound           no release at that path (or a torn swap left
///                      nothing behind)
///   DataLoss           checksum/length mismatch, truncated record, a
///                      segment that violates its layout (wrong length,
///                      out-of-range code, code/validity disagreement,
///                      non-zero padding or null payload — named by file
///                      and byte), or a file the MANIFEST lists but the
///                      dir lacks
///   IOError            possibly-transient read failure (retried with
///                      bounded backoff before being returned)
///   FailedPrecondition a pre-manifest (v1) directory, which has no
///                      checksums to check, or a MANIFEST version other
///                      than 2 or 3
///   AlreadyExists      the target exists and is not a replaceable
///                      release directory

/// Writes the release into `dir` atomically: on return the target is
/// either the complete new release or (on error) its previous content.
/// An existing release directory (or empty directory) at `dir` is
/// replaced by atomic swap; anything else there fails with
/// AlreadyExists. Always writes format v3. `exec` encodes the column
/// segments in parallel; the bytes written are identical at every
/// thread count.
Status WriteRelease(const Table& private_relation,
                    const PrivateRelationMetadata& metadata,
                    const std::string& dir, const ExecutionOptions& exec = {});

/// Convenience overload for a fresh GRR output.
Status WriteRelease(const GrrOutput& grr, const std::string& dir,
                    const ExecutionOptions& exec = {});

/// A loaded release: the private relation and its mechanism metadata.
struct LoadedRelease {
  Table relation;
  PrivateRelationMetadata metadata;
  /// 3 for segment releases, 2 for data.csv releases.
  int format_version = 3;
  /// True iff every payload file was checked against MANIFEST checksums
  /// before decoding — always the case for a release that loads.
  bool verified = false;
};

/// Reads a release directory back, verifying MANIFEST checksums, and
/// decodes format v3 (segments) or v2 (data.csv). A pre-manifest (v1)
/// directory is FailedPrecondition. `exec` decodes v3 columns in
/// parallel and shards the CSV cell typing of v2 data.csv; the resulting
/// Table is identical at every thread count.
Result<LoadedRelease> ReadRelease(const std::string& dir,
                                  const ExecutionOptions& exec = {});

/// Reconstructs an analyst-side PrivateTable from a loaded release. The
/// relation must be the *uncleaned* private relation as released (the
/// provenance snapshot anchors to it); apply cleaners afterwards via
/// PrivateTable::Clean as usual.
Result<PrivateTable> OpenRelease(const std::string& dir,
                                 const ExecutionOptions& exec = {});

/// Outcome of checking one payload file against the MANIFEST.
struct ReleaseFileCheck {
  std::string file;    ///< name relative to the release directory
  uint64_t bytes = 0;  ///< size recorded in the MANIFEST
  Status status;       ///< OK, or typed DataLoss/NotFound/IOError
};

/// Result of `VerifyRelease` on a manifest release.
struct ReleaseVerification {
  int format_version = 3;
  uint64_t rows = 0;  ///< relation size recorded in the MANIFEST
  std::vector<ReleaseFileCheck> files;
  /// OK iff every file check passed and the release parses; otherwise
  /// the first failure, with its file named in the message.
  Status status;
};

/// Integrity check behind `pclean verify`. Like ReadRelease it yields
/// FailedPrecondition for a release without a MANIFEST (otherwise
/// deleting the MANIFEST would silently downgrade a checksummed release
/// to an unchecked one). Returns an error Result when there is no
/// manifest to check against (NotFound / DataLoss / FailedPrecondition);
/// otherwise returns per-file outcomes plus an overall status. Each file
/// is read and checksummed once; when all pass, those same bytes go
/// through ReadRelease's decode step.
Result<ReleaseVerification> VerifyRelease(const std::string& dir);

/// Renders a release relation as the CSV a format-v2 release stored in
/// data.csv (RFC-4180, header row, `\N` for NULL). Behind
/// `pclean export`.
std::string ReleaseRelationToCsv(const Table& relation,
                                 const ExecutionOptions& exec = {});

}  // namespace privateclean

#endif  // PRIVATECLEAN_CORE_RELEASE_H_
