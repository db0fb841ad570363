//! Fidelity test against the paper's Table 6: the *actual contextual
//! sentences* the paper published (examples of validated annotations) are
//! fed to the simulated chatbot, which must produce the same annotations
//! the paper's GPT-4-Turbo produced.
//!
//! This pins the annotation engine to real-world policy language, not just
//! the synthetic generator's templates.

use aipan::chatbot::prompt::{TaskKind, TaskPrompt};
use aipan::chatbot::{protocol, Chatbot, ModelProfile, SimulatedChatbot};

fn oracle() -> SimulatedChatbot {
    SimulatedChatbot::new(ModelProfile::oracle(), 1)
}

fn extract_types(text: &str) -> Vec<(String, String)> {
    let bot = oracle();
    let input = protocol::number_lines([text]);
    let out = bot.complete(TaskPrompt::build(TaskKind::ExtractDataTypes), &input);
    let mentions = protocol::parse_extractions(&out).unwrap_or_default();
    let norm_input = protocol::number_lines(mentions.iter().map(|(_, t)| t.as_str()));
    let out = bot.complete(TaskPrompt::build(TaskKind::NormalizeDataTypes), &norm_input);
    protocol::parse_normalizations(&out)
        .unwrap_or_default()
        .into_iter()
        .map(|(_, descriptor, category)| (descriptor, category))
        .collect()
}

#[test]
fn biometric_row_iris_retina() {
    // Table 6: Biometric data → "retina scan" from "imagery of the iris or
    // retina", alongside voice prints, face geometry, and palm prints.
    let got = extract_types(
        "Biometric Information, such as voice prints, imagery of the iris or retina, \
         face geometry, and palm prints or fingerprints",
    );
    let descriptors: Vec<&str> = got.iter().map(|(d, _)| d.as_str()).collect();
    assert!(descriptors.contains(&"retina scan"), "{descriptors:?}");
    assert!(descriptors.contains(&"voice print"), "{descriptors:?}");
    assert!(descriptors.contains(&"facial data"), "{descriptors:?}");
    assert!(descriptors.contains(&"fingerprint"), "{descriptors:?}");
    assert!(got.iter().all(|(_, c)| c == "Biometric data"), "{got:?}");
}

#[test]
fn demographic_row_citizenship() {
    // Table 6: Demographic info → "citizenship" from "citizenships held".
    let got = extract_types(
        "Passport details, place of birth, citizenships held (past and present), and \
         residency status",
    );
    assert!(
        got.iter()
            .any(|(d, c)| d == "citizenship" && c == "Demographic info"),
        "{got:?}"
    );
    assert!(got.iter().any(|(d, _)| d == "passport"), "{got:?}");
}

#[test]
fn device_row_browser_type() {
    // Table 6: Device info → "browser type" from "type of browser software".
    let got = extract_types(
        "X logs your current Internet address (this is usually a temporary address \
         assigned by your Internet service provider when you log in), the type of \
         operating system you are using, and the type of browser software used.",
    );
    assert!(
        got.iter()
            .any(|(d, c)| d == "browser type" && c == "Device info"),
        "{got:?}"
    );
    assert!(got.iter().any(|(d, _)| d == "operating system"), "{got:?}");
    assert!(
        got.iter()
            .any(|(d, c)| d == "isp" && c == "Network connectivity"),
        "internet service provider should map to isp: {got:?}"
    );
}

#[test]
fn financial_capability_row_student_loans() {
    // Table 6: Financial capability → "student loan information".
    let got = extract_types(
        "Information regarding your education history, including degrees earned and \
         student loan financial information.",
    );
    assert!(
        got.iter()
            .any(|(d, c)| d == "student loan information" && c == "Financial capability"),
        "{got:?}"
    );
    assert!(
        got.iter().any(|(_, c)| c == "Educational info"),
        "education history / degrees earned: {got:?}"
    );
}

#[test]
fn precise_location_row_gps() {
    // Table 6: Precise Location → "gps location" from "latitude and
    // longitude coordinates".
    let got = extract_types(
        "X collects latitude and longitude coordinates from the device as part of the \
         timekeeping process when geolocation services are enabled",
    );
    assert!(
        got.iter()
            .any(|(d, c)| d == "gps location" && c == "Precise location"),
        "{got:?}"
    );
}

#[test]
fn product_usage_row_website_usage() {
    // Table 6: Product/service usage → "website usage" from "use of our
    // website".
    let got = extract_types(
        "For example, from observing your actions as a candidate, from records of your \
         use of our website, network, or other technology systems.",
    );
    assert!(
        got.iter()
            .any(|(d, c)| d == "website usage" && c == "Product/service usage"),
        "{got:?}"
    );
}

#[test]
fn purposes_rows_contract_and_affiliate_sharing() {
    let bot = oracle();
    let input = protocol::number_lines([
        "For the performance of a contract or to conduct business with you (e.g., \
         consulting; speaker agreement).",
        "To the extent permitted by applicable law, we may provide personal information \
         to our affiliated businesses or to our business partners, who may use it to \
         send you marketing and other communications.",
    ]);
    let out = bot.complete(TaskPrompt::build(TaskKind::AnnotatePurposes), &input);
    let rows = protocol::parse_purposes(&out).unwrap_or_default();
    assert!(
        rows.iter()
            .any(|(_, _, d, c)| d == "contract fulfillment" && c == "Basic functioning"),
        "{rows:?}"
    );
    assert!(
        rows.iter()
            .any(|(_, _, d, c)| d == "sharing with partners" && c == "Data sharing"),
        "affiliate sharing: {rows:?}"
    );
}

#[test]
fn handling_rows_stated_retention_and_protection() {
    let bot = oracle();
    let input = protocol::number_lines([
        "We retain your personal information for the period you are actively using our \
         services plus six (6) years.",
        "We strive to protect the information you provide to us when you use our \
         Services through commercially reasonable administrative, technical, and \
         organizational safeguards.",
        "Steps we have taken to enhance network and information security include \
         industry standard infrastructure security, the implementation of Secure Socket \
         Layer (SSL) encryption technology for payment transactions, and digital \
         certificates.",
    ]);
    let out = bot.complete(TaskPrompt::build(TaskKind::AnnotateHandling), &input);
    let rows = protocol::parse_handling(&out).unwrap_or_default();
    assert!(
        rows.iter()
            .any(|(n, _, l, p)| *n == 1 && l == "Stated" && p.as_deref() == Some("6 years")),
        "{rows:?}"
    );
    assert!(
        rows.iter().any(|(n, _, l, _)| *n == 2 && l == "Generic"),
        "{rows:?}"
    );
    assert!(
        rows.iter()
            .any(|(n, _, l, _)| *n == 3 && l == "Secure transfer"),
        "{rows:?}"
    );
}

#[test]
fn rights_rows_settings_link_and_edit() {
    let bot = oracle();
    let input = protocol::number_lines([
        "If you have a registered account, you may be able to change your preferences \
         as well as update your Personal Information through your account settings.",
        "To submit a request to opt out of the sale or sharing of your personal \
         information, please click the Opt-Out of Sale/Sharing Request tab on this page.",
        "We offer various self-help tools that will allow you to see and/or update \
         certain of your personal information in our records.",
    ]);
    let out = bot.complete(TaskPrompt::build(TaskKind::AnnotateRights), &input);
    let rows = protocol::parse_rights(&out).unwrap_or_default();
    assert!(
        rows.iter()
            .any(|(n, _, l)| *n == 1 && l == "Privacy settings"),
        "{rows:?}"
    );
    assert!(
        rows.iter()
            .any(|(n, _, l)| *n == 2 && l == "Opt-out via link"),
        "{rows:?}"
    );
    assert!(
        rows.iter().any(|(n, _, l)| *n == 3 && l == "Edit"),
        "{rows:?}"
    );
}

#[test]
fn negated_real_world_context_ignored() {
    // §6: "data mentioned after 'this privacy notice does not apply to'"
    // must not be extracted (GPT-4 behaviour; Llama-3.1 fails this).
    let got = extract_types(
        "This privacy notice does not apply to employment history or medical info \
         collected by our insurance subsidiaries.",
    );
    assert!(got.is_empty(), "negated mentions extracted: {got:?}");

    let llama = SimulatedChatbot::new(ModelProfile::llama31(), 99);
    let input = protocol::number_lines([
        "This privacy notice does not apply to employment history or medical info \
         collected by our insurance subsidiaries.",
    ]);
    let out = llama.complete(TaskPrompt::build(TaskKind::ExtractDataTypes), &input);
    // With negation_error = 0.7, at least one of the two negated mentions is
    // very likely extracted under this seed.
    let rows = protocol::parse_extractions(&out).unwrap_or_default();
    assert!(
        !rows.is_empty(),
        "llama profile should extract negated mentions (seed-dependent but \
         deterministic for seed 99)"
    );
}
