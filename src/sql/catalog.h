#ifndef LLMDM_SQL_CATALOG_H_
#define LLMDM_SQL_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"

namespace llmdm::sql {

/// Table namespace for one database. Names are case-insensitive. The whole
/// catalog is value-copyable, which is what the transaction layer relies on
/// for snapshots (tables at the scale of this library are small; a
/// copy-on-begin model keeps rollback trivially correct).
class Catalog {
 public:
  Catalog() = default;

  common::Status CreateTable(const std::string& name, data::Schema schema);
  common::Status DropTable(const std::string& name, bool if_exists);

  bool HasTable(const std::string& name) const;
  common::Result<const data::Table*> GetTable(const std::string& name) const;
  common::Result<data::Table*> GetMutableTable(const std::string& name);

  /// Registers a fully-built table (used by generators and transformers that
  /// construct tables outside of SQL DDL). Overwrites any existing table with
  /// the same name.
  void PutTable(data::Table table);

  std::vector<std::string> TableNames() const;

  /// Human-readable schema dump used to build LLM prompts ("the table
  /// information" input of Fig. 2).
  std::string DescribeForPrompt() const;

 private:
  // key = lower-cased name; Table keeps the original spelling.
  std::map<std::string, data::Table> tables_;
};

}  // namespace llmdm::sql

#endif  // LLMDM_SQL_CATALOG_H_
