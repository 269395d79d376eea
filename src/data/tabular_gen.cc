#include "data/tabular_gen.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace llmdm::data {
namespace {

// Probability that a patient's label is flipped from its logistic draw.
constexpr double kLabelNoise = 0.05;

const char* const kBrands[] = {"Acme",  "Globex", "Initech", "Umbrella",
                               "Stark", "Wayne",  "Hooli",   "Vandelay"};
const char* const kProducts[] = {"Laptop",  "Phone",   "Monitor", "Keyboard",
                                 "Printer", "Router",  "Tablet",  "Camera",
                                 "Speaker", "Charger"};
const char* const kCountries[] = {"USA",    "UK",     "France", "Germany",
                                  "Japan",  "Brazil", "India",  "Canada"};
const char* const kPeople[] = {"Michael Jordan", "Serena Williams",
                               "Lionel Messi",   "Marie Curie",
                               "Alan Turing",    "Grace Hopper"};
const char* const kSports[] = {"Basketball", "Badminton", "Table Tennis",
                               "Soccer",     "Tennis",    "Swimming"};
const char* const kMovies[] = {"Inception",    "Arrival",  "Parasite",
                               "The Matrix",   "Amelie",   "Coco"};
const char* const kCities2[] = {"Paris",  "Tokyo",  "Boston", "Berlin",
                                "Sydney", "Mumbai", "Lagos",  "Quito"};

}  // namespace

Table GeneratePatientTable(const PatientDataOptions& options,
                           common::Rng& rng) {
  Table t("patients", Schema({
                          {"patient_id", ColumnType::kInt64, false},
                          {"age", ColumnType::kInt64, true},
                          {"sex", ColumnType::kText, true},
                          {"bmi", ColumnType::kDouble, true},
                          {"systolic_bp", ColumnType::kInt64, true},
                          {"cholesterol", ColumnType::kInt64, true},
                          {"smoker", ColumnType::kBool, true},
                          {"has_heart_disease", ColumnType::kBool, true},
                      }));
  for (size_t i = 0; i < options.num_rows; ++i) {
    int64_t age = rng.UniformInt(25, 85);
    bool male = rng.Bernoulli(0.5);
    double bmi = std::round(rng.Normal(26.0, 4.0) * 10.0) / 10.0;
    bmi = std::clamp(bmi, 15.0, 45.0);
    int64_t bp = rng.UniformInt(95, 185);
    int64_t chol = rng.UniformInt(140, 300);
    bool smoker = rng.Bernoulli(0.3);
    // Logistic risk model: older, higher BP/cholesterol/BMI and smoking all
    // raise risk. Coefficients are steep enough that the Bayes accuracy is
    // ~0.85 (a learnable problem), with a ~40% positive rate.
    double z = -19.5 + 0.10 * double(age) + 0.04 * double(bp) +
               0.016 * double(chol) + 0.12 * bmi + (smoker ? 1.8 : 0.0) +
               (male ? 0.6 : 0.0);
    double p = 1.0 / (1.0 + std::exp(-z));
    bool label = rng.Bernoulli(p);
    if (rng.Bernoulli(kLabelNoise)) label = !label;
    Row row{Value::Int(static_cast<int64_t>(i) + 1),
            Value::Int(age),
            Value::Text(male ? "M" : "F"),
            Value::Real(bmi),
            Value::Int(bp),
            Value::Int(chol),
            Value::Bool(smoker),
            Value::Bool(label)};
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

std::vector<size_t> InjectMissing(Table* table, const std::string& column,
                                  double fraction, common::Rng& rng) {
  std::vector<size_t> blanked;
  auto idx = table->schema().Find(column);
  if (!idx.has_value()) return blanked;
  for (size_t r = 0; r < table->NumRows(); ++r) {
    if (rng.Bernoulli(fraction)) {
      (*table->mutable_row(r))[*idx] = Value::Null();
      blanked.push_back(r);
    }
  }
  return blanked;
}

std::string PerturbEntityText(const std::string& text, double severity,
                              common::Rng& rng) {
  std::vector<std::string> tokens = common::SplitWhitespace(text);
  for (std::string& tok : tokens) {
    if (tok.size() > 3 && rng.Bernoulli(severity * 0.5)) {
      tok = tok.substr(0, 3) + ".";  // abbreviate
    } else if (rng.Bernoulli(severity * 0.4)) {
      tok = common::ToLower(tok);  // case damage
    } else if (tok.size() > 2 && rng.Bernoulli(severity * 0.3)) {
      size_t pos = 1 + rng.NextBelow(tok.size() - 2);
      std::swap(tok[pos], tok[pos + 1]);  // transposition typo
    }
  }
  if (tokens.size() > 2 && rng.Bernoulli(severity * 0.3)) {
    size_t pos = rng.NextBelow(tokens.size() - 1);
    std::swap(tokens[pos], tokens[pos + 1]);  // token swap
  }
  return common::Join(tokens, " ");
}

std::vector<ErPair> GenerateErWorkload(size_t num_pairs, double dirt,
                                       common::Rng& rng) {
  // Entity universe: brand + product + model number.
  std::vector<std::string> entities;
  for (const char* brand : kBrands) {
    for (const char* product : kProducts) {
      entities.push_back(common::StrFormat("%s %s Model %lld", brand, product,
                                           (long long)rng.UniformInt(100, 999)));
    }
  }
  std::vector<ErPair> out;
  for (size_t i = 0; i < num_pairs; ++i) {
    ErPair pair;
    if (rng.Bernoulli(0.5)) {
      const std::string& e = rng.Choice(entities);
      pair.left = e;
      pair.right = PerturbEntityText(e, dirt, rng);
      pair.is_match = true;
    } else {
      const std::string& a = rng.Choice(entities);
      std::string b = rng.Choice(entities);
      for (int attempt = 0; attempt < 4 && b == a; ++attempt) {
        b = rng.Choice(entities);
      }
      pair.left = a;
      pair.right = PerturbEntityText(b, dirt * 0.5, rng);
      pair.is_match = (a == b);
    }
    out.push_back(std::move(pair));
  }
  return out;
}

std::vector<std::string> CtaLabels() {
  return {"country", "person", "sports", "movie", "city"};
}

const std::vector<std::pair<std::string, std::vector<std::string>>>&
CtaGazetteer() {
  static const auto& kGazetteer = *new std::vector<
      std::pair<std::string, std::vector<std::string>>>{
      {"country", {std::begin(kCountries), std::end(kCountries)}},
      {"person", {std::begin(kPeople), std::end(kPeople)}},
      {"sports", {std::begin(kSports), std::end(kSports)}},
      {"movie", {std::begin(kMovies), std::end(kMovies)}},
      {"city", {std::begin(kCities2), std::end(kCities2)}},
  };
  return kGazetteer;
}

std::vector<CtaExample> GenerateCtaWorkload(size_t num_examples,
                                            common::Rng& rng) {
  auto pick = [&rng](const char* const* pool, size_t n, size_t want) {
    std::vector<std::string> out;
    for (size_t i = 0; i < want; ++i) out.push_back(pool[rng.NextBelow(n)]);
    return out;
  };
  std::vector<CtaExample> out;
  for (size_t i = 0; i < num_examples; ++i) {
    CtaExample ex;
    switch (rng.NextBelow(5)) {
      case 0:
        ex.values = pick(kCountries, std::size(kCountries), 3);
        ex.label = "country";
        break;
      case 1:
        ex.values = pick(kPeople, std::size(kPeople), 3);
        ex.label = "person";
        break;
      case 2:
        ex.values = pick(kSports, std::size(kSports), 3);
        ex.label = "sports";
        break;
      case 3:
        ex.values = pick(kMovies, std::size(kMovies), 3);
        ex.label = "movie";
        break;
      default:
        ex.values = pick(kCities2, std::size(kCities2), 3);
        ex.label = "city";
        break;
    }
    out.push_back(std::move(ex));
  }
  return out;
}

}  // namespace llmdm::data
