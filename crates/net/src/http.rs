//! Minimal HTTP request/response model for the simulated transport.

use crate::url::Url;
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// HTTP status code wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Status(pub u16);

impl Status {
    /// 200 OK.
    pub const OK: Status = Status(200);
    /// 301 Moved Permanently.
    pub const MOVED_PERMANENTLY: Status = Status(301);
    /// 302 Found.
    pub const FOUND: Status = Status(302);
    /// 403 Forbidden (used for bot-blocked crawls).
    pub const FORBIDDEN: Status = Status(403);
    /// 404 Not Found.
    pub const NOT_FOUND: Status = Status(404);
    /// 429 Too Many Requests.
    pub const TOO_MANY_REQUESTS: Status = Status(429);
    /// 500 Internal Server Error.
    pub const INTERNAL_SERVER_ERROR: Status = Status(500);
    /// 503 Service Unavailable.
    pub const SERVICE_UNAVAILABLE: Status = Status(503);

    /// The paper's success criterion: "an HTTP status code below 400".
    pub fn is_success(self) -> bool {
        self.0 < 400
    }

    /// Whether this is a redirect status (3xx).
    pub fn is_redirect(self) -> bool {
        (300..400).contains(&self.0)
    }

    /// Whether this is a server error (5xx) — the transient-retryable band.
    pub fn is_server_error(self) -> bool {
        (500..600).contains(&self.0)
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Response content type (a closed set; the simulated web serves only
/// these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContentType {
    /// `text/html`.
    Html,
    /// `application/pdf` — the crawler cannot extract these (§4: 5 of the 50
    /// audited failures were PDF policies).
    Pdf,
    /// `text/plain`.
    Plain,
    /// Anything else (images, scripts, ...).
    Other,
}

impl ContentType {
    /// MIME string.
    pub fn mime(self) -> &'static str {
        match self {
            ContentType::Html => "text/html; charset=utf-8",
            ContentType::Pdf => "application/pdf",
            ContentType::Plain => "text/plain; charset=utf-8",
            ContentType::Other => "application/octet-stream",
        }
    }
}

/// A simulated HTTP GET request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Target URL.
    pub url: Url,
    /// User-agent string presented to the host (bot walls key off this).
    pub user_agent: String,
}

impl Request {
    /// A GET request with the crawler's default user agent.
    pub fn get(url: Url) -> Request {
        Request {
            url,
            user_agent: "aipan-crawler/0.1 (headless)".to_string(),
        }
    }
}

/// A simulated HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Content type.
    pub content_type: ContentType,
    /// Body bytes.
    pub body: Bytes,
    /// Redirect target for 3xx responses.
    pub location: Option<String>,
}

impl Response {
    /// A 200 HTML response.
    pub fn html(body: impl Into<Bytes>) -> Response {
        Response {
            status: Status::OK,
            content_type: ContentType::Html,
            body: body.into(),
            location: None,
        }
    }

    /// A 200 PDF response (payload content is irrelevant to the pipeline,
    /// which cannot parse PDFs).
    pub fn pdf(body: impl Into<Bytes>) -> Response {
        Response {
            status: Status::OK,
            content_type: ContentType::Pdf,
            body: body.into(),
            location: None,
        }
    }

    /// A redirect to `location`.
    pub fn redirect(status: Status, location: impl Into<String>) -> Response {
        debug_assert!(status.is_redirect());
        Response {
            status,
            content_type: ContentType::Html,
            body: Bytes::new(),
            location: Some(location.into()),
        }
    }

    /// A 404 response.
    pub fn not_found() -> Response {
        Response {
            status: Status::NOT_FOUND,
            content_type: ContentType::Html,
            body: Bytes::from_static(b"<html><body><h1>404 Not Found</h1></body></html>"),
            location: None,
        }
    }

    /// A 403 bot-wall response.
    pub fn blocked() -> Response {
        Response {
            status: Status::FORBIDDEN,
            content_type: ContentType::Html,
            body: Bytes::from_static(
                b"<html><body><h1>Access denied</h1><p>Automated traffic detected.</p></body></html>",
            ),
            location: None,
        }
    }

    /// A 503 response for a transient server-error burst.
    pub fn unavailable() -> Response {
        Response {
            status: Status::SERVICE_UNAVAILABLE,
            content_type: ContentType::Html,
            body: Bytes::from_static(
                b"<html><body><h1>503 Service Unavailable</h1><p>Try again shortly.</p></body></html>",
            ),
            location: None,
        }
    }

    /// Body interpreted as UTF-8 (lossy): equal to
    /// `String::from_utf8_lossy(&self.body)`. The body is validated first,
    /// which reads a word at a time where it is ASCII, and a valid body
    /// (every body the simulated web serves) is copied once; only an
    /// invalid one takes the lossy decode.
    pub fn body_text(&self) -> String {
        match std::str::from_utf8(&self.body) {
            Ok(text) => text.to_owned(),
            Err(_) => String::from_utf8_lossy(&self.body).into_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_success_below_400() {
        assert!(Status::OK.is_success());
        assert!(Status(399).is_success());
        assert!(Status::MOVED_PERMANENTLY.is_success());
        assert!(!Status::FORBIDDEN.is_success());
        assert!(!Status::NOT_FOUND.is_success());
        assert!(!Status(500).is_success());
    }

    #[test]
    fn redirect_detection() {
        assert!(Status::FOUND.is_redirect());
        assert!(!Status::OK.is_redirect());
        assert!(!Status::NOT_FOUND.is_redirect());
    }

    #[test]
    fn response_constructors() {
        let r = Response::html("<p>x</p>");
        assert_eq!(r.status, Status::OK);
        assert_eq!(r.content_type, ContentType::Html);
        assert_eq!(r.body_text(), "<p>x</p>");

        let rd = Response::redirect(Status::MOVED_PERMANENTLY, "/privacy");
        assert_eq!(rd.location.as_deref(), Some("/privacy"));

        assert_eq!(Response::not_found().status, Status::NOT_FOUND);
        assert_eq!(Response::blocked().status, Status::FORBIDDEN);
        assert_eq!(Response::pdf(vec![1, 2, 3]).content_type, ContentType::Pdf);
    }

    #[test]
    fn mime_strings() {
        assert!(ContentType::Html.mime().starts_with("text/html"));
        assert_eq!(ContentType::Pdf.mime(), "application/pdf");
    }

    /// `body_text` against the lossy decode it replaced.
    fn assert_decodes_like_lossy(body: &[u8]) {
        let text = Response::html(body.to_vec()).body_text();
        assert_eq!(text, String::from_utf8_lossy(body), "{body:?}");
    }

    #[test]
    fn body_text_matches_lossy_decode_at_every_offset() {
        let mut specials: Vec<Vec<u8>> = (0u8..0x20).map(|b| vec![b]).collect();
        specials.extend(
            [&b"\""[..], b"\\", b"\x7f", b"<", b"&"]
                .into_iter()
                .map(<[u8]>::to_vec),
        );
        specials.extend(["é", "€", "😀"].map(|c| c.as_bytes().to_vec()));
        // Invalid: a lone 0xFF, a lone continuation byte, a 3-byte char cut
        // short, an overlong `/`.
        specials.extend([vec![0xFF], vec![0x80], vec![0xE2, 0x82], vec![0xC0, 0xAF]]);
        for len in 0..=24 {
            for offset in 0..=len.min(16) {
                for special in &specials {
                    let mut body = vec![b'a'; len];
                    body.splice(offset..offset, special.iter().copied());
                    assert_decodes_like_lossy(&body);
                }
            }
        }
        // The truncated char as the body's last bytes, after any prefix.
        for len in 0..=24 {
            let mut body = vec![b'a'; len];
            body.extend([0xE2, 0x82]);
            assert_decodes_like_lossy(&body);
        }
    }

    proptest::proptest! {
        #[test]
        fn body_text_matches_lossy_decode(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            ascii in proptest::collection::vec(0u8..0x80, 0..64),
            at in 0usize..64,
            byte in 0u8..=255,
        ) {
            assert_decodes_like_lossy(&bytes);
            // Mostly ASCII with at most one arbitrary byte: valid or not.
            let mut body = ascii.clone();
            body.insert(at.min(ascii.len()), byte);
            assert_decodes_like_lossy(&ascii);
            assert_decodes_like_lossy(&body);
        }
    }
}
